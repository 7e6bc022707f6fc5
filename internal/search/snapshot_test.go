package search_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/search"
)

// oneNNSnapshot is OneNNSnapshotCtx over a background context.
func oneNNSnapshot(m measure.Measure, queries, refs [][]float64, snap *corpus.Snapshot) search.Result {
	res, _ := search.OneNNSnapshotCtx(context.Background(), m, queries, refs, snap)
	return res
}

// buildSnapshot is corpus.BuildCtx under a context that never cancels.
func buildSnapshot(series [][]float64, opts corpus.Options) *corpus.Snapshot {
	snap, err := corpus.BuildCtx(context.Background(), series, opts)
	if err != nil {
		panic(err)
	}
	return snap
}

// snapshotFor builds a snapshot materializing every candidate's state.
func snapshotFor(series [][]float64, ms ...measure.Measure) *corpus.Snapshot {
	return buildSnapshot(series, corpus.Options{Measures: ms})
}

// TestGridSnapshotMatchesInline is the snapshot exactness property test:
// for every Table-4 grid, the snapshot-backed tuning engine must report
// bit-identical per-candidate neighbors and distances to both the inline
// engine and the naive per-candidate loop. Any contamination of the
// snapshot's shared state (a refilled envelope, a candidate state drifting
// from Prepare) fails here.
func TestGridSnapshotMatchesInline(t *testing.T) {
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
			snap := snapshotFor(d.Train, g.Candidates...)
			got := looGrid(g.Candidates, d.Train, snap)
			want := looGrid(g.Candidates, d.Train, nil)
			for k, cand := range g.Candidates {
				naive := looGrid([]measure.Measure{cand}, d.Train, snap).PerCandidate[0]
				for i := range want.PerCandidate[k].Indices {
					wi, wd := want.PerCandidate[k].Indices[i], want.PerCandidate[k].Distances[i]
					if got.PerCandidate[k].Indices[i] != wi || got.PerCandidate[k].Distances[i] != wd {
						t.Fatalf("%s on %s: row %d snapshot grid (%d, %v), inline (%d, %v)",
							cand.Name(), d.Name, i,
							got.PerCandidate[k].Indices[i], got.PerCandidate[k].Distances[i], wi, wd)
					}
					if naive.Indices[i] != wi || naive.Distances[i] != wd {
						t.Fatalf("%s on %s: row %d snapshot loo (%d, %v), inline (%d, %v)",
							cand.Name(), d.Name, i, naive.Indices[i], naive.Distances[i], wi, wd)
					}
				}
			}
			// Hits are only owed when the family has state to share:
			// stateless grids (e.g. MSM) legitimately serve nothing.
			hasState := false
			for _, cand := range g.Candidates {
				if _, ok := cand.(measure.Stateful); ok {
					hasState = true
				}
				if _, ok := cand.(measure.LowerBounded); ok {
					hasState = true
				}
			}
			if hasState && snap.Hits().Total() == 0 {
				t.Fatalf("%s on %s: snapshot never served state", g.Name, d.Name)
			}
		}
	}
}

// TestOneNNSnapshotMatchesInline covers the 1-NN and single-candidate
// leave-one-out paths for the three engine shapes: lower-bounded (DTW), grid
// stateful (SINK), and plain stateful (GAK).
func TestOneNNSnapshotMatchesInline(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 17, Count: 2, MaxLength: 48, MaxTrain: 14, MaxTest: 6,
	})
	for _, m := range []measure.Measure{
		elastic.DTW{DeltaPercent: 10},
		kernel.SINK{Gamma: 5},
		kernel.GAK{Sigma: 1},
	} {
		for _, d := range archive {
			snap := snapshotFor(d.Train, m)
			got := oneNNSnapshot(m, d.Test, d.Train, snap)
			want := oneNN(m, d.Test, d.Train)
			for i := range want.Indices {
				if got.Indices[i] != want.Indices[i] ||
					math.Float64bits(got.Distances[i]) != math.Float64bits(want.Distances[i]) {
					t.Fatalf("%s on %s: query %d snapshot (%d, %v), inline (%d, %v)",
						m.Name(), d.Name, i, got.Indices[i], got.Distances[i],
						want.Indices[i], want.Distances[i])
				}
			}
			gotL := looGrid([]measure.Measure{m}, d.Train, snap).PerCandidate[0]
			wantL := search.LeaveOneOut(m, d.Train)
			for i := range wantL.Indices {
				if gotL.Indices[i] != wantL.Indices[i] ||
					math.Float64bits(gotL.Distances[i]) != math.Float64bits(wantL.Distances[i]) {
					t.Fatalf("%s on %s: loo row %d snapshot (%d, %v), inline (%d, %v)",
						m.Name(), d.Name, i, gotL.Indices[i], gotL.Distances[i],
						wantL.Indices[i], wantL.Distances[i])
				}
			}
		}
	}
}

// TestGridSnapshotDegenerateInputs reruns the NaN/Inf degenerate-input
// grid check through the snapshot path: domination repair and non-finite
// fallbacks must behave identically when state comes from a snapshot.
func TestGridSnapshotDegenerateInputs(t *testing.T) {
	train := [][]float64{
		{1, 2, 3, 4, 5, 4, 3, 2},
		{math.NaN(), 2, 3, 4, 5, 4, 3, 2},
		{1, 2, math.Inf(1), 4, 5, 4, 3, 2},
		{2, 3, 4, 5, 4, 3, 2, 1},
		{math.Inf(-1), math.NaN(), 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0},
	}
	g := eval.DTWGrid()
	snap := snapshotFor(train, g.Candidates...)
	got := looGrid(g.Candidates, train, snap)
	want := looGrid(g.Candidates, train, nil)
	for k, cand := range g.Candidates {
		for i := range want.PerCandidate[k].Indices {
			wi, wd := want.PerCandidate[k].Indices[i], want.PerCandidate[k].Distances[i]
			if got.PerCandidate[k].Indices[i] != wi || got.PerCandidate[k].Distances[i] != wd {
				t.Fatalf("%s: row %d snapshot (%d, %v), inline (%d, %v)", cand.Name(), i,
					got.PerCandidate[k].Indices[i], got.PerCandidate[k].Distances[i], wi, wd)
			}
		}
	}
}

// TestSnapshotFallbacks checks the degradation contract: a nil snapshot
// and one built over different series must both produce inline results
// (and never panic), so callers can thread a snapshot unconditionally.
func TestSnapshotFallbacks(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 23, Count: 1, MaxLength: 32, MaxTrain: 10, MaxTest: 4,
	})
	d := archive[0]
	other := make([][]float64, len(d.Train))
	for i := range d.Train {
		other[i] = append([]float64(nil), d.Train[i]...)
	}
	m := kernel.SINK{Gamma: 5}
	foreign := snapshotFor(other, m)
	want := oneNN(m, d.Test, d.Train)
	for name, snap := range map[string]*corpus.Snapshot{"nil": nil, "foreign": foreign} {
		got := oneNNSnapshot(m, d.Test, d.Train, snap)
		for i := range want.Indices {
			if got.Indices[i] != want.Indices[i] || got.Distances[i] != want.Distances[i] {
				t.Fatalf("%s snapshot: query %d got (%d, %v), want (%d, %v)",
					name, i, got.Indices[i], got.Distances[i], want.Indices[i], want.Distances[i])
			}
		}
	}
	if h := foreign.Hits(); h.Total() != 0 {
		t.Fatalf("foreign snapshot served state: %+v", h)
	}
	g := eval.Thin(eval.DTWGrid(), 7)
	foreignG := snapshotFor(other, g.Candidates...)
	gotG := looGrid(g.Candidates, d.Train, foreignG)
	wantG := looGrid(g.Candidates, d.Train, nil)
	for k := range wantG.PerCandidate {
		for i := range wantG.PerCandidate[k].Indices {
			if gotG.PerCandidate[k].Indices[i] != wantG.PerCandidate[k].Indices[i] {
				t.Fatalf("foreign-snapshot grid diverged at cand %d row %d", k, i)
			}
		}
	}
	if h := foreignG.Hits(); h.Total() != 0 {
		t.Fatalf("foreign snapshot served grid state: %+v", h)
	}
}

// TestGridSnapshotStats checks the PrepSnapshot counter: a covering
// snapshot must serve state (counter > 0) and eliminate inline preparation
// for the families it covers.
func TestGridSnapshotStats(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 29, Count: 1, MaxLength: 40, MaxTrain: 12, MaxTest: 4,
	})
	d := archive[0]
	g := eval.Thin(eval.SINKGrid(), 4)
	snap := snapshotFor(d.Train, g.Candidates...)
	gr := looGrid(g.Candidates, d.Train, snap)
	if gr.Stats.PrepSnapshot == 0 {
		t.Fatalf("snapshot-backed sweep reports no snapshot-served states: %+v", gr.Stats)
	}
	inline := looGrid(g.Candidates, d.Train, nil)
	if inline.Stats.PrepSnapshot != 0 {
		t.Fatalf("inline sweep reports snapshot-served states: %+v", inline.Stats)
	}
}
