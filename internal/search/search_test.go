package search_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/corpus"
	"repro/internal/elastic"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/search"
	"repro/internal/sliding"
)

func randomSet(seed int64, n, m int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	set := make([][]float64, n)
	for i := range set {
		set[i] = make([]float64, m)
		for j := range set[i] {
			set[i][j] = rng.NormFloat64()
		}
	}
	return set
}

// oneNN is OneNNCtx over a background context.
func oneNN(m measure.Measure, queries, refs [][]float64) search.Result {
	res, _ := search.OneNNCtx(context.Background(), m, queries, refs)
	return res
}

// looGrid is LeaveOneOutGridCtx over a background context.
func looGrid(cands []measure.Measure, train [][]float64, snap *corpus.Snapshot) search.GridResult {
	gr, _ := search.LeaveOneOutGridCtx(context.Background(), cands, train, snap)
	return gr
}

// brute is the exhaustive reference: argmin over sanitized distances with
// strict-< updates, i.e. ties keep the lowest index.
func brute(m measure.Measure, x []float64, refs [][]float64, skip int) (int, float64) {
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

func TestOneNNMatchesBruteForce(t *testing.T) {
	refs := randomSet(1, 30, 64)
	queries := randomSet(2, 20, 64)
	for _, m := range []measure.Measure{
		elastic.DTW{DeltaPercent: 10}, // LowerBounded + EarlyAbandoning
		elastic.MSM{C: 0.5},           // plain symmetric
		lockstep.Euclidean(),          // plain
	} {
		res := oneNN(m, queries, refs)
		for i, x := range queries {
			wantIdx, wantDist := brute(m, x, refs, -1)
			if res.Indices[i] != wantIdx || res.Distances[i] != wantDist {
				t.Fatalf("%s query %d: got (%d, %g), want (%d, %g)",
					m.Name(), i, res.Indices[i], res.Distances[i], wantIdx, wantDist)
			}
		}
		if res.Stats.Pairs != int64(len(queries)*len(refs)) {
			t.Fatalf("%s: Pairs = %d, want %d", m.Name(), res.Stats.Pairs, len(queries)*len(refs))
		}
	}
}

func TestOneNNTieBreaksToLowestIndex(t *testing.T) {
	base := randomSet(3, 1, 32)[0]
	// Duplicate references: every query must pick the first copy.
	refs := [][]float64{append([]float64(nil), base...), append([]float64(nil), base...), append([]float64(nil), base...)}
	queries := randomSet(4, 5, 32)
	queries = append(queries, append([]float64(nil), base...))
	for _, m := range []measure.Measure{elastic.DTW{DeltaPercent: 100}, elastic.ERP{G: 0}} {
		res := oneNN(m, queries, refs)
		for i := range queries {
			if res.Indices[i] != 0 {
				t.Fatalf("%s query %d: tie must resolve to index 0, got %d", m.Name(), i, res.Indices[i])
			}
		}
	}
}

func TestLeaveOneOutHalvedMatchesNonSymmetricPath(t *testing.T) {
	train := randomSet(5, 40, 48)
	sym := elastic.DTW{DeltaPercent: 10}
	// Func wrapper hides the Symmetric/LowerBounded/EarlyAbandoning
	// interfaces, forcing the per-row path over plain Distance calls.
	plain := measure.New("dtw-opaque", sym.Distance)
	got := search.LeaveOneOut(sym, train)
	want := search.LeaveOneOut(plain, train)
	for i := range train {
		if got.Indices[i] != want.Indices[i] || got.Distances[i] != want.Distances[i] {
			t.Fatalf("row %d: halved (%d, %g) vs per-row (%d, %g)",
				i, got.Indices[i], got.Distances[i], want.Indices[i], want.Distances[i])
		}
	}
	n := int64(len(train))
	if got.Stats.Pairs != n*(n-1)/2 {
		t.Fatalf("halved Pairs = %d, want %d", got.Stats.Pairs, n*(n-1)/2)
	}
	if want.Stats.Pairs != n*(n-1) {
		t.Fatalf("per-row Pairs = %d, want %d", want.Stats.Pairs, n*(n-1))
	}
}

func TestLeaveOneOutHalvedTieBreaking(t *testing.T) {
	// All-identical training set: every pair distance is 0, so every row
	// must report its lowest other index under first-wins tie-breaking.
	base := randomSet(6, 1, 24)[0]
	train := make([][]float64, 12)
	for i := range train {
		train[i] = append([]float64(nil), base...)
	}
	for _, m := range []measure.Measure{elastic.DTW{DeltaPercent: 5}, elastic.TWE{Lambda: 1, Nu: 0.1}} {
		res := search.LeaveOneOut(m, train)
		for i := range train {
			want := 0
			if i == 0 {
				want = 1
			}
			if res.Indices[i] != want {
				t.Fatalf("%s row %d: got %d, want %d", m.Name(), i, res.Indices[i], want)
			}
			if res.Distances[i] != 0 {
				t.Fatalf("%s row %d: distance %g, want 0", m.Name(), i, res.Distances[i])
			}
		}
	}
}

func TestStatefulMeasureUsesPreparedPath(t *testing.T) {
	refs := randomSet(7, 15, 64)
	queries := randomSet(8, 10, 64)
	m := sliding.SBD()
	if _, ok := measure.Measure(m).(measure.Stateful); !ok {
		t.Skip("SBD is not Stateful in this build")
	}
	res := oneNN(m, queries, refs)
	for i, x := range queries {
		wantIdx, wantDist := brute(m, x, refs, -1)
		if res.Indices[i] != wantIdx {
			t.Fatalf("query %d: got %d, want %d", i, res.Indices[i], wantIdx)
		}
		if math.Abs(res.Distances[i]-wantDist) > 1e-9 {
			t.Fatalf("query %d: got %g, want %g", i, res.Distances[i], wantDist)
		}
	}
	// SBD is not declared Symmetric, so leave-one-out takes the per-row
	// path; verify against brute force with the diagonal skipped.
	loo := search.LeaveOneOut(m, refs)
	for i, x := range refs {
		wantIdx, _ := brute(m, x, refs, i)
		if loo.Indices[i] != wantIdx {
			t.Fatalf("loo row %d: got %d, want %d", i, loo.Indices[i], wantIdx)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	d := elastic.DTW{DeltaPercent: 10}
	if res := oneNN(d, nil, randomSet(9, 3, 16)); len(res.Indices) != 0 {
		t.Fatal("no queries must yield no results")
	}
	res := oneNN(d, randomSet(10, 2, 16), nil)
	for i := range res.Indices {
		if res.Indices[i] != -1 || !math.IsInf(res.Distances[i], 1) {
			t.Fatalf("empty reference set: got (%d, %g), want (-1, +Inf)", res.Indices[i], res.Distances[i])
		}
	}
	if r := search.LeaveOneOut(d, nil); len(r.Indices) != 0 {
		t.Fatal("empty train must yield no results")
	}
	single := search.LeaveOneOut(d, randomSet(11, 1, 16))
	if single.Indices[0] != -1 || !math.IsInf(single.Distances[0], 1) {
		t.Fatalf("singleton train: got (%d, %g), want (-1, +Inf)", single.Indices[0], single.Distances[0])
	}
}

func TestPruningActuallyPrunes(t *testing.T) {
	refs := randomSet(12, 60, 128)
	// Queries are tiny perturbations of references: the best-so-far drops
	// to near zero as soon as the twin is scanned, after which the cascade
	// must reject the remaining (distant) candidates.
	rng := rand.New(rand.NewSource(13))
	queries := make([][]float64, 20)
	for i := range queries {
		queries[i] = append([]float64(nil), refs[i]...)
		for j := range queries[i] {
			queries[i][j] += 0.001 * rng.NormFloat64()
		}
	}
	res := oneNN(elastic.DTW{DeltaPercent: 5}, queries, refs)
	if res.Stats.LBPruned == 0 {
		t.Fatal("narrow-band DTW over random series should prune at least one candidate")
	}
	if res.Stats.LBPruned+res.Stats.FullDist != res.Stats.Pairs {
		t.Fatalf("stats inconsistent: %d pruned + %d full != %d pairs",
			res.Stats.LBPruned, res.Stats.FullDist, res.Stats.Pairs)
	}
}

func TestQuerierReuseAcrossQueries(t *testing.T) {
	refs := randomSet(14, 25, 64)
	queries := randomSet(15, 12, 64)
	ix, err := search.NewIndexSnapshotCtx(context.Background(), elastic.DTW{DeltaPercent: 10}, refs, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := ix.Querier()
	for i, x := range queries {
		gotIdx, gotDist := q.Query(x)
		wantIdx, wantDist := brute(elastic.DTW{DeltaPercent: 10}, x, refs, -1)
		if gotIdx != wantIdx || gotDist != wantDist {
			t.Fatalf("query %d: got (%d, %g), want (%d, %g)", i, gotIdx, gotDist, wantIdx, wantDist)
		}
	}
}
