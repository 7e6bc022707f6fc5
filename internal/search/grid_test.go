package search_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/search"
)

// TestLeaveOneOutGridMatchesPerCandidate is the tuning-engine exactness
// property test: for every grid of Table 4 (eval.Grids), across randomized
// archives, the one-pass engine must report bit-identical neighbor indices
// and distances — hence identical selected candidates, accuracies, and
// tie-breaks — to the naive loop running search.LeaveOneOut per candidate.
// Any sharing bug (a candidate state that drifts from Prepare, a warm-start
// cutoff that prunes a true minimum, a wave scheduling order that breaks
// tie-breaking) fails here.
func TestLeaveOneOutGridMatchesPerCandidate(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 11, Count: 3, MaxLength: 40, MaxTrain: 12, MaxTest: 4,
	})
	stride := 1
	if testing.Short() {
		stride = 4
	}
	for _, g := range eval.Grids() {
		g = eval.Thin(g, stride)
		for _, d := range archive {
			gr := looGrid(g.Candidates, d.Train, nil)
			if len(gr.PerCandidate) != len(g.Candidates) {
				t.Fatalf("%s on %s: %d results for %d candidates",
					g.Name, d.Name, len(gr.PerCandidate), len(g.Candidates))
			}
			for k, cand := range g.Candidates {
				want := search.LeaveOneOut(cand, d.Train)
				got := gr.PerCandidate[k]
				for i := range want.Indices {
					if got.Indices[i] != want.Indices[i] || got.Distances[i] != want.Distances[i] {
						t.Fatalf("%s on %s: row %d got (%d, %v), want (%d, %v)",
							cand.Name(), d.Name, i,
							got.Indices[i], got.Distances[i],
							want.Indices[i], want.Distances[i])
					}
				}
			}
		}
	}
}

// TestTuneSupervisedMatchesNaiveSelection checks the full selection path:
// TuneSupervisedCtx on the engine must pick the same candidate with the same
// accuracy as the naive per-candidate loop, for every grid family.
func TestTuneSupervisedMatchesNaiveSelection(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 7, Count: 2, MaxLength: 32, MaxTrain: 14, MaxTest: 4,
	})
	stride := 1
	if testing.Short() {
		stride = 3
	}
	for _, g := range eval.Grids() {
		g = eval.Thin(g, stride)
		for _, d := range archive {
			gotM, gotAcc, _, _ := eval.TuneSupervisedCtx(context.Background(), g, d.Train, d.TrainLabels, nil)
			wantIdx, wantAcc := 0, -1.0
			for i, cand := range g.Candidates {
				res := search.LeaveOneOut(cand, d.Train)
				acc := eval.AccuracyFromNeighbors(res.Indices, d.TrainLabels, d.TrainLabels)
				if acc > wantAcc {
					wantAcc, wantIdx = acc, i
				}
			}
			wantM := g.Candidates[wantIdx]
			if gotM.Name() != wantM.Name() || gotAcc != wantAcc {
				t.Fatalf("%s on %s: engine selected %s (%v), naive %s (%v)",
					g.Name, d.Name, gotM.Name(), gotAcc, wantM.Name(), wantAcc)
			}
		}
	}
}

// TestGridEngineDegenerateInputs drives the DTW band grid over series
// containing NaN and Inf values, where DP band monotonicity — and with it
// the warm-start domination declaration — can break. The engine must fall
// back to its repair path and still match the per-candidate reference
// exactly.
func TestGridEngineDegenerateInputs(t *testing.T) {
	train := [][]float64{
		{1, 2, 3, 4, 5, 4, 3, 2},
		{math.NaN(), 2, 3, 4, 5, 4, 3, 2},
		{1, 2, math.Inf(1), 4, 5, 4, 3, 2},
		{2, 3, 4, 5, 4, 3, 2, 1},
		{math.Inf(-1), math.NaN(), 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0},
	}
	g := eval.DTWGrid()
	gr := looGrid(g.Candidates, train, nil)
	for k, cand := range g.Candidates {
		want := search.LeaveOneOut(cand, train)
		got := gr.PerCandidate[k]
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] || got.Distances[i] != want.Distances[i] {
				t.Fatalf("%s: row %d got (%d, %v), want (%d, %v)", cand.Name(), i,
					got.Indices[i], got.Distances[i], want.Indices[i], want.Distances[i])
			}
		}
	}
}

// TestGridStatsCounters checks that the warm-start optimizations engage
// on the grid built for them: the DTW band grid schedules warm-started
// waves.
func TestGridStatsCounters(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 5, Count: 1, MaxLength: 48, MaxTrain: 16, MaxTest: 4,
	})
	train := archive[0].Train

	dtw := looGrid(eval.DTWGrid().Candidates, train, nil).Stats
	if dtw.Waves < 2 {
		t.Errorf("DTW band grid ran in %d waves, want warm-start chain", dtw.Waves)
	}
	if dtw.WarmRows == 0 {
		t.Errorf("DTW band grid primed no rows")
	}
	if dtw.WarmSearch.Pairs == 0 {
		t.Errorf("DTW warm candidates recorded no pair work")
	}
	if dtw.Repaired != 0 {
		t.Errorf("DTW on finite data repaired %d rows, want 0", dtw.Repaired)
	}
}

// TestNestingDeclarations spot-checks the DominatedBy declarations against
// brute-force distance comparisons on random series: a dominating
// candidate's distance must never be below the dominated one's.
func TestNestingDeclarations(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 13, Count: 1, MaxLength: 40, MaxTrain: 8, MaxTest: 2,
	})
	train := archive[0].Train
	type pair struct{ narrow, wide measure.Measure }
	pairs := []pair{
		{elastic.DTW{DeltaPercent: 5}, elastic.DTW{DeltaPercent: 10}},
		{elastic.DTW{DeltaPercent: 0}, elastic.DTW{DeltaPercent: 100}},
		{elastic.LCSS{DeltaPercent: 5, Epsilon: 0.1}, elastic.LCSS{DeltaPercent: 10, Epsilon: 0.3}},
		{elastic.EDR{Epsilon: 0.05}, elastic.EDR{Epsilon: 0.5}},
	}
	for _, p := range pairs {
		nb, ok := p.wide.(measure.NestedBounds)
		if !ok || !nb.DominatedBy(p.narrow) {
			t.Fatalf("%s should be dominated by %s", p.wide.Name(), p.narrow.Name())
		}
		if nbn, ok := p.narrow.(measure.NestedBounds); ok && nbn.DominatedBy(p.wide) &&
			p.narrow.Name() != p.wide.Name() {
			t.Fatalf("%s must not claim domination by wider %s", p.narrow.Name(), p.wide.Name())
		}
		for i := range train {
			for j := i + 1; j < len(train); j++ {
				dn := p.narrow.Distance(train[i], train[j])
				dw := p.wide.Distance(train[i], train[j])
				if dw > dn {
					t.Fatalf("%s(%d,%d)=%v exceeds %s=%v: nesting violated",
						p.wide.Name(), i, j, dw, p.narrow.Name(), dn)
				}
			}
		}
	}
}

// panelCounter wraps a lock-step PanelEvaluator and counts its batched
// calls. It declares no symmetry, so leave-one-out runs it through the
// grid engine's scan path (one Index per candidate) rather than the halved
// pair scan.
type panelCounter struct {
	pe    measure.PanelEvaluator
	calls *atomic.Int64
}

func (c panelCounter) Name() string { return c.pe.Name() }

func (c panelCounter) Distance(x, y []float64) float64 { return c.pe.Distance(x, y) }

func (c panelCounter) PanelDistances(q []float64, panel [][]float64, out []float64) bool {
	c.calls.Add(1)
	return c.pe.PanelDistances(q, panel, out)
}

func (c panelCounter) PanelDistancesUpTo(q []float64, panel [][]float64, cutoff float64, out []float64) bool {
	c.calls.Add(1)
	return c.pe.PanelDistancesUpTo(q, panel, cutoff, out)
}

// TestGridScanCandidatesUsePanels checks that the grid engine's scan
// candidates run on the batched panel kernels, as a standalone 1-NN index
// does, with neighbors identical to exhaustive matrix evaluation.
func TestGridScanCandidatesUsePanels(t *testing.T) {
	train := randomSet(31, 40, 48)
	var calls atomic.Int64
	inner := []measure.PanelEvaluator{lockstep.Euclidean(), lockstep.Manhattan()}
	cands := make([]measure.Measure, len(inner))
	for k, pe := range inner {
		cands[k] = panelCounter{pe: pe, calls: &calls}
	}
	gr, err := search.LeaveOneOutGridCtx(context.Background(), cands, train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("grid scan candidates never called the panel kernels")
	}
	for k, pe := range inner {
		want := eval.LeaveOneOutNeighbors(eval.Matrix(pe, train, train))
		for i, w := range want {
			if got := gr.PerCandidate[k].Indices[i]; got != w {
				t.Fatalf("%s row %d: grid neighbor %d, matrix neighbor %d", pe.Name(), i, got, w)
			}
		}
	}
}
