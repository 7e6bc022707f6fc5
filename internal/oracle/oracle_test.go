package oracle

import (
	"context"
	"flag"
	"math"
	"testing"

	"repro/internal/elastic"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/search"
	"repro/internal/sliding"
)

// -oracle.long widens the fuzzing campaign from the fixed short-mode seeds
// to an extended randomized sweep.
var oracleLong = flag.Bool("oracle.long", false, "run the extended oracle fuzzing campaign")

// fuzzSeeds returns the deterministic seed schedule: one seed under
// -short, a small fixed set by default, a long sweep under -oracle.long.
func fuzzSeeds(t *testing.T) []int64 {
	if *oracleLong {
		seeds := make([]int64, 0, 32)
		for s := int64(1); s <= 32; s++ {
			seeds = append(seeds, s)
		}
		return seeds
	}
	if testing.Short() {
		return []int64{1}
	}
	return []int64{1, 2, 3}
}

// TestOracleDifferentialFuzz is the tentpole: every registered measure on
// the randomized and adversarial corpus, checked against its reference
// implementation and its optional-interface contracts, plus both search
// engines against exhaustive matrix evaluation. Failures print the full
// structured discrepancy report.
func TestOracleDifferentialFuzz(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		r := Fuzz(seed)
		if len(r.Discrepancies) > 0 {
			t.Errorf("seed %d:\n%s", seed, r)
		} else {
			t.Logf("seed %d: oracle harness passed %d checks", seed, r.Checks)
		}
	}
}

// TestOracleCoverageComplete pins the registry to the library inventory:
// every measure any All() registry returns must have a reference
// implementation in Pairs(). A new measure without an oracle fails here.
func TestOracleCoverageComplete(t *testing.T) {
	covered := map[string]bool{}
	for _, p := range Pairs() {
		covered[p.M.Name()] = true
	}
	var registered []measure.Measure
	registered = append(registered, lockstep.All()...)
	registered = append(registered, sliding.All()...)
	registered = append(registered, elastic.All()...)
	registered = append(registered, kernel.All()...)
	for _, m := range registered {
		if !covered[m.Name()] {
			t.Errorf("registered measure %q has no oracle pair", m.Name())
		}
	}
}

// TestOracleTieBreakingDuplicates verifies the satellite tie-breaking
// contract directly: on reference sets containing exact duplicate series,
// the pruned engine and the matrix path must pick identical neighbor
// indices (the lowest), for a representative measure of every category.
func TestOracleTieBreakingDuplicates(t *testing.T) {
	queries, refs := EngineSets(7, false)

	// The construction puts real ties in play: query 1 is a copy of refs[0]
	// and refs[3] is too, so both engines must report neighbor 0 at
	// distance 0 under any metric-like measure.
	e := eval.Matrix(lockstep.Euclidean(), queries, refs)
	if e[1][0] != 0 || e[1][3] != 0 {
		t.Fatalf("engine set lost its duplicates: d(q1,r0)=%v d(q1,r3)=%v", e[1][0], e[1][3])
	}

	ms := []measure.Measure{
		lockstep.Euclidean(),
		lockstep.Lorentzian(),
		sliding.SBD(),
		elastic.DTW{DeltaPercent: 10},
		elastic.MSM{C: 0.5},
		kernel.SINK{Gamma: 5},
	}
	for _, m := range ms {
		r := &Report{}
		CheckEngines(r, m, queries, refs)
		if len(r.Discrepancies) > 0 {
			t.Errorf("%s:\n%s", m.Name(), r)
		}
		got, _ := search.OneNNCtx(context.Background(), m, queries, refs)
		if got.Indices[1] != 0 {
			t.Errorf("%s: duplicate query resolved to %d, want lowest index 0", m.Name(), got.Indices[1])
		}
	}
}

// TestOracleElasticDegenerate pins the satellite degenerate-input
// contract: every elastic measure must return a defined (non-NaN) value on
// empty, length-1, and constant series, and DistanceUpTo must equal
// Distance whenever the threshold is not hit.
func TestOracleElasticDegenerate(t *testing.T) {
	cases := []struct {
		name string
		x, y []float64
	}{
		{"empty", []float64{}, []float64{}},
		{"len1-equal", []float64{1.5}, []float64{1.5}},
		{"len1-diff", []float64{-2}, []float64{3}},
		{"const-equal", constant(9, 0.5), constant(9, 0.5)},
		{"const-diff", constant(9, -1), constant(9, 2)},
		{"const-vs-ramp", constant(5, 0), []float64{0, 1, 2, 3, 4}},
	}
	var ms []measure.Measure
	ms = append(ms, elastic.All()...)
	ms = append(ms,
		elastic.DTW{DeltaPercent: 0}, elastic.DTW{DeltaPercent: 100},
		elastic.DDTW{DeltaPercent: 10}, elastic.WDTW{G: 0.05},
		elastic.DDBlend{DeltaPercent: 10, Alpha: 0.5},
	)
	for _, m := range ms {
		for _, c := range cases {
			var d float64
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on %s panicked: %v", m.Name(), c.name, p)
					}
				}()
				d = m.Distance(c.x, c.y)
			}()
			if math.IsNaN(d) {
				t.Errorf("%s on %s = NaN, want a defined value", m.Name(), c.name)
			}
			if ea, ok := m.(measure.EarlyAbandoning); ok && !math.IsInf(d, 0) {
				if v := ea.DistanceUpTo(c.x, c.y, d+1); v != d {
					t.Errorf("%s on %s: DistanceUpTo(d+1)=%v, Distance=%v", m.Name(), c.name, v, d)
				}
			}
		}
	}
}

// TestOracleEmbeddingConsistency covers the embedding category: the
// adapter's prepared path, its direct path, and an independent Euclidean
// over the embedder's own transforms must agree on fitted models.
func TestOracleEmbeddingConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("embedding fits are slow in short mode")
	}
	rngSeed := int64(11)
	queries, refs := EngineSets(rngSeed, false)
	for _, e := range embedding.All(rngSeed) {
		e.Fit(refs)
		m := embedding.Measure{E: e}
		oracleRef := func(x, y []float64) float64 {
			tx, ty := e.Transform(x), e.Transform(y)
			var s float64
			for i := range tx {
				d := tx[i] - ty[i]
				s += d * d
			}
			return math.Sqrt(s)
		}
		r := &Report{}
		for _, q := range queries {
			p := Pair{M: m, Ref: oracleRef, Tol: TolExact}
			CheckPair(r, p, Input{Name: "embed", X: q, Y: refs[0], Finite: true})
		}
		CheckEngines(r, m, queries, refs)
		if len(r.Discrepancies) > 0 {
			t.Errorf("%s:\n%s", e.Name(), r)
		}
	}
}

// TestOracleReportRendering keeps the structured report usable: counts,
// per-kind summary, and one line per discrepancy.
func TestOracleReportRendering(t *testing.T) {
	r := &Report{Checks: 3}
	r.add("dtw[d=10]", "gaussian/len=7", "oracle", "optimized=%v reference=%v", 1.0, 2.0)
	out := r.String()
	for _, want := range []string{"3 checks", "1 discrepancies", "dtw[d=10]", "oracle: 1"} {
		if !containsStr(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
