//go:build !race

package search_test

import (
	"context"
	"testing"

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
