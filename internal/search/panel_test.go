package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lockstep"
	"repro/internal/measure"
)

// Exactness tests for the PanelEvaluator dispatch in Querier.block: the
// chunked panel scan with best-so-far cutoffs must reproduce brute-force
// per-pair evaluation bitwise, including lowest-index tie-breaking.

func panelMeasures() []measure.Measure {
	return []measure.Measure{
		lockstep.Euclidean(), lockstep.Manhattan(), lockstep.Chebyshev(),
		lockstep.Lorentzian(), lockstep.SquaredEuclidean(), lockstep.Cosine(),
	}
}

func panelTestData(rng *rand.Rand, n, m int) [][]float64 {
	series := make([][]float64, n)
	for i := range series {
		series[i] = make([]float64, m)
		for j := range series[i] {
			series[i][j] = rng.NormFloat64()
		}
	}
	// Duplicates force distance ties, exercising lowest-index resolution.
	if n > 7 {
		series[5] = append([]float64(nil), series[1]...)
		series[7] = append([]float64(nil), series[1]...)
	}
	return series
}

// bruteForce1NN is the exhaustive reference: sanitize every Distance,
// argmin with strict < (lowest index wins ties), skip for leave-one-out.
func bruteForce1NN(m measure.Measure, x []float64, refs [][]float64, skip int) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for j, r := range refs {
		if j == skip {
			continue
		}
		d := measure.Sanitize(m.Distance(x, r))
		if best == -1 || d < bestDist {
			best, bestDist = j, d
		}
	}
	return best, bestDist
}

func TestPanelSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	refs := panelTestData(rng, 45, 70) // not a multiple of panelChunk
	queries := panelTestData(rng, 9, 70)
	queries[3] = append([]float64(nil), refs[12]...) // zero-distance hit
	for _, m := range panelMeasures() {
		res, _ := OneNNCtx(context.Background(), m, queries, refs)
		if got := res.Stats.Pairs; got != int64(len(queries)*len(refs)) {
			t.Errorf("%s: Pairs = %d, want %d", m.Name(), got, len(queries)*len(refs))
		}
		for i, q := range queries {
			wi, wd := bruteForce1NN(m, q, refs, -1)
			if res.Indices[i] != wi || math.Float64bits(res.Distances[i]) != math.Float64bits(wd) {
				t.Fatalf("%s query %d: got (%d, %v), want (%d, %v)",
					m.Name(), i, res.Indices[i], res.Distances[i], wi, wd)
			}
		}
	}
}

func TestPanelLeaveOneOutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	train := panelTestData(rng, 33, 64)
	for _, m := range panelMeasures() {
		res := LeaveOneOut(m, train)
		if got := res.Stats.Pairs; got != int64(len(train)*(len(train)-1)) {
			t.Errorf("%s: Pairs = %d, want %d", m.Name(), got, len(train)*(len(train)-1))
		}
		for i, q := range train {
			wi, wd := bruteForce1NN(m, q, train, i)
			if res.Indices[i] != wi || math.Float64bits(res.Distances[i]) != math.Float64bits(wd) {
				t.Fatalf("%s row %d: got (%d, %v), want (%d, %v)",
					m.Name(), i, res.Indices[i], res.Distances[i], wi, wd)
			}
		}
	}
}

// TestPanelSearchNaNData: NaN distances sanitize to +Inf and rank last on
// the panel path exactly as on the per-pair path.
func TestPanelSearchNaNData(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	refs := panelTestData(rng, 10, 40)
	refs[0][3] = math.NaN() // poisons every distance against ref 0
	q := panelTestData(rng, 1, 40)[0]
	for _, m := range panelMeasures() {
		res, _ := OneNNCtx(context.Background(), m, [][]float64{q}, refs)
		wi, wd := bruteForce1NN(m, q, refs, -1)
		if res.Indices[0] != wi || math.Float64bits(res.Distances[0]) != math.Float64bits(wd) {
			t.Fatalf("%s: got (%d, %v), want (%d, %v)", m.Name(), res.Indices[0], res.Distances[0], wi, wd)
		}
	}
}
