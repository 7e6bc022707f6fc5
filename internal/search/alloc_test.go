//go:build !race

package search_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/elastic"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/search"
)

// TestQueryAllocFree pins Query's steady-state promise: once warm, a DTW
// query (its bound context refilled in place, the DP rows pooled) and a
// Euclidean query on the panel path allocate nothing. The race detector
// drops pooled buffers at random, so this file does not build under -race.
func TestQueryAllocFree(t *testing.T) {
	refs := randomSet(71, 80, 96)
	queries := randomSet(72, 8, 96)
	for _, m := range []measure.Measure{elastic.DTW{DeltaPercent: 10}, lockstep.Euclidean()} {
		ix, err := search.NewIndexSnapshotCtx(context.Background(), m, refs, nil)
		if err != nil {
			t.Fatal(err)
		}
		q := ix.Querier()
		for _, x := range queries {
			q.Query(x)
		}
		i := 0
		if n := testing.AllocsPerRun(20, func() {
			q.Query(queries[i%len(queries)])
			i++
		}); n != 0 {
			t.Errorf("%s: a warm Query allocates %v per call, want 0", m.Name(), n)
		}
	}
}

// TestLoneQueryBytes pins what a warm lone DTW query over a snapshot
// allocates at two workers: the snapshot holds the references' envelopes
// and the query's bound context comes from a pool, so only the result, the
// index and the block dispatch allocate, well under the 4 KB envelope a
// fresh query context would cost at length 128.
func TestLoneQueryBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const calls, limit = 100, 2048
	refs := randomSet(73, 16*search.ScanBlock, 128)
	query := randomSet(74, 1, 128)
	m := elastic.DTW{DeltaPercent: 10}
	snap := buildSnapshot(refs, corpus.Options{Measures: []measure.Measure{m}})
	run := func() {
		if _, err := search.OneNNSnapshotCtx(context.Background(), m, query, refs, snap); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / calls; b > limit {
		t.Errorf("a warm lone DTW query allocates %d B, want at most %d", b, limit)
	} else {
		t.Logf("a warm lone DTW query allocates %d B", b)
	}
}
