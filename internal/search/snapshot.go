package search

import (
	"context"

	"repro/internal/corpus"
	"repro/internal/measure"
)

// This file wires the search engine to the build-once prepared-state layer
// of internal/corpus. Every path takes the snapshot as an optional
// argument: per-reference state is the snapshot's measure.Prepared when
// the snapshot covers the series and holds state for the measure, and
// measure.PrepareCtx's otherwise. The two are the same value, so results
// are bitwise identical either way: the snapshot changes where state comes
// from, never what is computed from it.

// NewIndexSnapshotCtx builds a query index over refs: its per-reference
// state comes from the snapshot when it covers refs and holds state for m,
// and is otherwise prepared inline in parallel, honoring cancellation. On
// a non-nil error the index is unusable.
func NewIndexSnapshotCtx(ctx context.Context, m measure.Measure, refs [][]float64, snap *corpus.Snapshot) (*Index, error) {
	if !snap.Covers(refs) {
		snap = nil
	}
	st := snap.State(m)
	if st.Bounds == nil && st.States == nil {
		var err error
		if st, err = measure.PrepareCtx(ctx, m, refs); err != nil {
			return nil, err
		}
	}
	return newIndex(m, refs, st), nil
}

// OneNNSnapshotCtx finds, in parallel, the nearest reference of every
// query — the matrix-free replacement for eval.Matrix + argmin — serving
// per-reference state from the optional snapshot. Several queries spread
// over workers; a lone query spreads its blocks of references over them,
// each block starting from the seed, so a single request uses every core.
// Neighbors, distances, tie-breaks and work counts do not depend on the
// worker count, and the first three are identical to exhaustive
// evaluation. A cancelled search stops within one dispatch chunk (of
// queries, or of a lone query's blocks) per worker and returns ctx.Err()
// alongside the partial Result.
func OneNNSnapshotCtx(ctx context.Context, m measure.Measure, queries, refs [][]float64, snap *corpus.Snapshot) (Result, error) {
	ix, err := NewIndexSnapshotCtx(ctx, m, refs, snap)
	if err != nil {
		return Result{}, err
	}
	return searchAllCtx(ctx, ix, queries)
}
