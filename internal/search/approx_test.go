package search_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ann"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/measure"
	"repro/internal/search"
)

func approxData(t *testing.T, n, q int) (refs, queries [][]float64) {
	t.Helper()
	d := dataset.Generate(dataset.Config{
		Name: "approx", Family: dataset.FamilyCBF,
		Length: 64, NumClasses: 3, TrainSize: n, TestSize: q,
		Seed: 11, NoiseSigma: 0.2, ShiftFrac: 0.05,
	})
	return d.Train, d.Test
}

// TestOneNNApproxFallbackMatchesExact pins the engine's fallback
// contract at the search layer: a budget covering the corpus yields
// results identical to the exact pruned engine, query for query.
func TestOneNNApproxFallbackMatchesExact(t *testing.T) {
	refs, queries := approxData(t, 40, 16)
	m := elastic.DTW{DeltaPercent: 10}
	approx, err := search.OneNNApproxSnapshotCtx(context.Background(), m, queries, refs, ann.Config{Candidates: len(refs), Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := oneNN(m, queries, refs)
	if approx.Stats.Fallbacks != int64(len(queries)) {
		t.Fatalf("fallbacks %d, want %d", approx.Stats.Fallbacks, len(queries))
	}
	for i := range queries {
		if approx.Indices[i] != exact.Indices[i] || approx.Distances[i] != exact.Distances[i] {
			t.Fatalf("query %d: approx (%d, %g) != exact (%d, %g)",
				i, approx.Indices[i], approx.Distances[i], exact.Indices[i], exact.Distances[i])
		}
	}
}

// TestOneNNApproxNeverBeatsExact checks the defining inequality of the
// approximate engine on the real ANN path: reported distances are exact
// for their index, so they can never undercut the true minimum.
func TestOneNNApproxNeverBeatsExact(t *testing.T) {
	refs, queries := approxData(t, 160, 24)
	m := elastic.DTW{DeltaPercent: 10}
	approx, err := search.OneNNApproxSnapshotCtx(context.Background(), m, queries, refs, ann.Config{Candidates: 12, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	exact := oneNN(m, queries, refs)
	if approx.Stats.Fallbacks != 0 {
		t.Fatalf("budget 12 over n=160 must not fall back (%d did)", approx.Stats.Fallbacks)
	}
	if approx.Stats.EmbedDist == 0 {
		t.Fatal("no embedding-space work recorded")
	}
	for i := range queries {
		if approx.Distances[i] < exact.Distances[i]-1e-9 {
			t.Fatalf("query %d: approximate %g beats exact %g", i, approx.Distances[i], exact.Distances[i])
		}
		if d := m.Distance(queries[i], refs[approx.Indices[i]]); math.Abs(d-approx.Distances[i]) > 1e-9 {
			t.Fatalf("query %d: reported distance %g is not exact (%g)", i, approx.Distances[i], d)
		}
	}
}

// TestKNNApproxShape checks the top-k surface: per-query neighbor lists
// sorted by (distance, index), rank-1 mirrored into Indices/Distances.
func TestKNNApproxShape(t *testing.T) {
	refs, queries := approxData(t, 80, 8)
	m := elastic.DTW{DeltaPercent: 10}
	res, err := search.KNNApproxSnapshotCtx(context.Background(), m, queries, refs, 5, ann.Config{Candidates: 16, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != len(queries) {
		t.Fatalf("%d neighbor lists for %d queries", len(res.Neighbors), len(queries))
	}
	for i, nbs := range res.Neighbors {
		if len(nbs) != 5 {
			t.Fatalf("query %d: %d neighbors, want 5", i, len(nbs))
		}
		for r := 1; r < len(nbs); r++ {
			if nbs[r-1].Dist > nbs[r].Dist {
				t.Fatalf("query %d: unsorted ranks %g > %g", i, nbs[r-1].Dist, nbs[r].Dist)
			}
		}
		if res.Indices[i] != nbs[0].Index || res.Distances[i] != nbs[0].Dist {
			t.Fatalf("query %d: rank-1 mirror mismatch", i)
		}
	}
}

// TestOneNNApproxSnapshotWarmPath checks the snapshot integration: a
// snapshot holding a fitted ANN index serves it (same answers as the
// cold build), and a snapshot not covering the refs falls back cleanly.
func TestOneNNApproxSnapshotWarmPath(t *testing.T) {
	refs, queries := approxData(t, 96, 12)
	m := elastic.DTW{DeltaPercent: 10}
	cfg := ann.Config{Candidates: 12, Seed: 4}
	snap := buildSnapshot(refs, corpus.Options{ANN: []corpus.ANNSpec{{Measure: m, Config: cfg}}})
	ctx := context.Background()
	warm, err := search.OneNNApproxSnapshotCtx(ctx, m, queries, refs, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := search.OneNNApproxSnapshotCtx(ctx, m, queries, refs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if warm.Indices[i] != cold.Indices[i] || warm.Distances[i] != cold.Distances[i] {
			t.Fatalf("query %d: warm (%d, %g) != cold (%d, %g)",
				i, warm.Indices[i], warm.Distances[i], cold.Indices[i], cold.Distances[i])
		}
	}
	// Foreign snapshot: same shape, different content — must not be used.
	rng := rand.New(rand.NewSource(5))
	other := make([][]float64, len(refs))
	for i := range other {
		s := make([]float64, 64)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		other[i] = s
	}
	foreign := buildSnapshot(other, corpus.Options{ANN: []corpus.ANNSpec{{Measure: m, Config: cfg}}})
	res, err := search.OneNNApproxSnapshotCtx(ctx, m, queries, refs, cfg, foreign)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if res.Indices[i] != cold.Indices[i] || res.Distances[i] != cold.Distances[i] {
			t.Fatalf("query %d: foreign-snapshot result diverges from cold build", i)
		}
	}
}

// TestKNNApproxSnapshotAdoptsExactState checks that a top-k search over a
// snapshot holding no ANN index still adopts the exact-side state the
// snapshot does hold: every reference's filled bound context is served
// once to the inline build, and the answers match a snapshot-free search.
func TestKNNApproxSnapshotAdoptsExactState(t *testing.T) {
	refs, queries := approxData(t, 48, 6)
	m := elastic.DTW{DeltaPercent: 10}
	cfg := ann.Config{Candidates: 12, Seed: 6}
	snap := buildSnapshot(refs, corpus.Options{Measures: []measure.Measure{m}})
	ctx := context.Background()
	before := snap.Hits().Bounds
	got, err := search.KNNApproxSnapshotCtx(ctx, m, queries, refs, 3, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if served := snap.Hits().Bounds - before; served != int64(len(refs)) {
		t.Fatalf("snapshot served %d bound contexts, want %d", served, len(refs))
	}
	want, err := search.KNNApproxSnapshotCtx(ctx, m, queries, refs, 3, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if len(got.Neighbors[i]) != len(want.Neighbors[i]) {
			t.Fatalf("query %d: %d neighbors with the snapshot, %d without", i, len(got.Neighbors[i]), len(want.Neighbors[i]))
		}
		for r, nb := range want.Neighbors[i] {
			if got.Neighbors[i][r] != nb {
				t.Fatalf("query %d rank %d: snapshot %+v, inline %+v", i, r, got.Neighbors[i][r], nb)
			}
		}
	}
}

// TestOneNNApproxCancellation checks both the build and the query
// fan-out observe the context.
func TestOneNNApproxCancellation(t *testing.T) {
	refs, queries := approxData(t, 64, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := search.OneNNApproxSnapshotCtx(ctx, elastic.DTW{DeltaPercent: 10}, queries, refs, ann.Config{}, nil); err == nil {
		t.Fatal("cancelled approximate search returned nil error")
	}
}

// TestOneNNApproxEmpty covers degenerate inputs at the search layer.
func TestOneNNApproxEmpty(t *testing.T) {
	_, queries := approxData(t, 8, 4)
	ctx := context.Background()
	res, err := search.OneNNApproxSnapshotCtx(ctx, elastic.DTW{DeltaPercent: 10}, queries, nil, ann.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if res.Indices[i] != -1 || !math.IsInf(res.Distances[i], 1) {
			t.Fatalf("query %d over empty refs = (%d, %g)", i, res.Indices[i], res.Distances[i])
		}
	}
	empty, err := search.OneNNApproxSnapshotCtx(ctx, elastic.DTW{DeltaPercent: 10}, nil, queries, ann.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Indices) != 0 {
		t.Fatalf("no queries produced %d results", len(empty.Indices))
	}
}
