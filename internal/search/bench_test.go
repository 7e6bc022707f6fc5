package search_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/measure"
	"repro/internal/search"
)

func benchDataset() *dataset.Dataset {
	return dataset.Generate(dataset.Config{
		Name: "Bench", Family: dataset.FamilyECG, Length: 128,
		NumClasses: 4, TrainSize: 100, TestSize: 50, Seed: 42,
		NoiseSigma: 0.1, ShiftFrac: 0.15, AmpJitter: 0.2,
	})
}

// baselineDTW reproduces the pre-optimization DTW of this repository:
// per-call row allocation and a full-row wipe on every DP row (O(m^2)
// regardless of the band), wrapped as an opaque Func so the evaluation
// cannot exploit symmetry, bounds, or early abandoning. It is the
// reference point of the tuning benchmark below.
func baselineDTW(deltaPercent int) measure.Measure {
	name := fmt.Sprintf("dtw-baseline[d=%d]", deltaPercent)
	return measure.New(name, func(x, y []float64) float64 {
		m := len(x)
		if m == 0 {
			return 0
		}
		w := m
		if deltaPercent < 100 {
			w = deltaPercent * m / 100
			if w < 1 {
				w = 1
			}
		}
		inf := math.Inf(1)
		prev := make([]float64, m+1)
		cur := make([]float64, m+1)
		for j := range prev {
			prev[j] = inf
		}
		prev[0] = 0
		for i := 1; i <= m; i++ {
			for j := range cur {
				cur[j] = inf
			}
			lo, hi := i-w, i+w
			if lo < 1 {
				lo = 1
			}
			if hi > m {
				hi = m
			}
			for j := lo; j <= hi; j++ {
				c := x[i-1] - y[j-1]
				best := prev[j-1]
				if prev[j] < best {
					best = prev[j]
				}
				if cur[j-1] < best {
					best = cur[j-1]
				}
				cur[j] = c*c + best
			}
			prev, cur = cur, prev
		}
		return prev[m]
	})
}

// baselineGrid mirrors eval.DTWGrid with the baseline implementation.
func baselineGrid() eval.Grid {
	ref := eval.DTWGrid()
	g := eval.Grid{Name: "dtw-baseline"}
	for _, cand := range ref.Candidates {
		g.Candidates = append(g.Candidates, baselineDTW(cand.(elastic.DTW).DeltaPercent))
	}
	return g
}

// tuneByMatrix scores every candidate by materializing the train-by-train
// matrix and scanning it — the tuning loop as it existed before the
// pruned engine.
func tuneByMatrix(g eval.Grid, train [][]float64, labels []int) (int, float64) {
	bestIdx, bestAcc := 0, -1.0
	for j, cand := range g.Candidates {
		w := eval.Matrix(cand, train, train)
		acc := eval.AccuracyFromNeighbors(eval.LeaveOneOutNeighbors(w), labels, labels)
		if acc > bestAcc {
			bestAcc, bestIdx = acc, j
		}
	}
	return bestIdx, bestAcc
}

// BenchmarkSupervisedDTWTuning compares full-grid supervised DTW tuning:
//
//   - baseline: the pre-optimization stack (full-row-wipe DTW, per-call
//     allocations, full train-by-train matrices);
//   - matrix: today's DTW kernel but still through exhaustive symmetric
//     matrices;
//   - pruned: eval.TuneSupervisedCtx on the search engine (symmetric pair
//     halving + LB_Kim/LB_Keogh cascade + early-abandoning DP).
//
// All three select the same candidate with the same accuracy (see
// TestTuningPathsAgree); only the work differs.
func BenchmarkSupervisedDTWTuning(b *testing.B) {
	d := benchDataset()
	b.Run("baseline", func(b *testing.B) {
		g := baselineGrid()
		for i := 0; i < b.N; i++ {
			tuneByMatrix(g, d.Train, d.TrainLabels)
		}
	})
	b.Run("matrix", func(b *testing.B) {
		g := eval.DTWGrid()
		for i := 0; i < b.N; i++ {
			tuneByMatrix(g, d.Train, d.TrainLabels)
		}
	})
	b.Run("pruned", func(b *testing.B) {
		g := eval.DTWGrid()
		for i := 0; i < b.N; i++ {
			eval.TuneSupervisedCtx(context.Background(), g, d.Train, d.TrainLabels, nil)
		}
	})
}

// tunePerCandidate is TuneSupervised as it existed before the grid engine:
// one independent pruned LeaveOneOut per candidate, no sharing across the
// sweep. It is the reference point of BenchmarkGridTuning.
func tunePerCandidate(g eval.Grid, train [][]float64, labels []int) (int, float64) {
	bestIdx, bestAcc := 0, -1.0
	for i, cand := range g.Candidates {
		res := search.LeaveOneOut(cand, train)
		acc := eval.AccuracyFromNeighbors(res.Indices, labels, labels)
		if acc > bestAcc {
			bestAcc, bestIdx = acc, i
		}
	}
	return bestIdx, bestAcc
}

// BenchmarkGridTuning compares supervised grid tuning per candidate (the
// previous TuneSupervised path) against the one-pass grid engine on the DTW
// band grid, whose warm-start pruning and envelope reuse the engine
// targets; both paths select identical candidates (see
// TestTuneSupervisedMatchesNaiveSelection). sink/engine times the engine
// on the SINK gamma grid, whose candidates each run the prepared SINK
// path: per candidate or in the engine, the work is the same.
func BenchmarkGridTuning(b *testing.B) {
	d := benchDataset()
	sinkTrain := d.Train[:40]
	sinkLabels := d.TrainLabels[:40]
	b.Run("dtw/percandidate", func(b *testing.B) {
		g := eval.DTWGrid()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tunePerCandidate(g, d.Train, d.TrainLabels)
		}
	})
	b.Run("dtw/engine", func(b *testing.B) {
		g := eval.DTWGrid()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eval.TuneSupervisedCtx(context.Background(), g, d.Train, d.TrainLabels, nil)
		}
	})
	b.Run("sink/engine", func(b *testing.B) {
		g := eval.SINKGrid()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eval.TuneSupervisedCtx(context.Background(), g, sinkTrain, sinkLabels, nil)
		}
	})
}

// TestTuningPathsAgree pins the benchmark's claim: the baseline stack, the
// exhaustive matrix path, and the pruned engine pick the same grid
// candidate with the same leave-one-out accuracy.
func TestTuningPathsAgree(t *testing.T) {
	d := benchDataset()
	baseIdx, baseAcc := tuneByMatrix(baselineGrid(), d.Train, d.TrainLabels)
	matIdx, matAcc := tuneByMatrix(eval.DTWGrid(), d.Train, d.TrainLabels)
	chosen, acc, _, _ := eval.TuneSupervisedCtx(context.Background(), eval.DTWGrid(), d.Train, d.TrainLabels, nil)
	if baseIdx != matIdx || baseAcc != matAcc {
		t.Fatalf("baseline picked %d (%g), matrix picked %d (%g)", baseIdx, baseAcc, matIdx, matAcc)
	}
	if chosen.Name() != eval.DTWGrid().Candidates[matIdx].Name() || acc != matAcc {
		t.Fatalf("pruned picked %s (%g), matrix picked %s (%g)",
			chosen.Name(), acc, eval.DTWGrid().Candidates[matIdx].Name(), matAcc)
	}
}

// BenchmarkQuerierQuery measures a single pruned DTW query against a warm
// index. Steady state must not allocate: the bound context, envelope
// deques, and DP rows are all reused.
func BenchmarkQuerierQuery(b *testing.B) {
	d := benchDataset()
	ix, err := search.NewIndexSnapshotCtx(context.Background(), elastic.DTW{DeltaPercent: 10}, d.Train, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := ix.Querier()
	// Warm the DP-scratch pool and the querier's bound context.
	for _, x := range d.Test {
		q.Query(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Query(d.Test[i%len(d.Test)])
	}
}

// BenchmarkOneNNInference compares whole-test-set inference, the Figure 9
// timing unit, across the exact and pruned paths.
func BenchmarkOneNNInference(b *testing.B) {
	d := benchDataset()
	m := elastic.DTW{DeltaPercent: 10}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = eval.Neighbors(eval.Matrix(m, d.Test, d.Train))
		}
	})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = oneNN(m, d.Test, d.Train)
		}
	})
}
