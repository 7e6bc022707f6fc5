package search

import (
	"context"

	"repro/internal/corpus"
	"repro/internal/measure"
	"repro/internal/par"
)

// This file wires the search engine to the build-once prepared-state layer
// of internal/corpus. Every path takes the snapshot as an optional
// argument: per-reference state (filled bound contexts, Stateful
// preparations) is served from the snapshot when it covers the series and
// holds state for the measure, and prepared inline otherwise. A nil snapshot — or one built over different series —
// prepares everything inline, so results are bitwise identical either way:
// the snapshot changes where state comes from, never what is computed from
// it.

// NewIndexSnapshotCtx builds a query index over refs: its per-reference
// state comes from the snapshot when it covers refs and holds state for m;
// anything missing is prepared inline in parallel, honoring cancellation.
// On a non-nil error the index is unusable.
func NewIndexSnapshotCtx(ctx context.Context, m measure.Measure, refs [][]float64, snap *corpus.Snapshot) (*Index, error) {
	if !snap.Covers(refs) {
		snap = nil
	}
	ix := newIndex(m, refs, snap)
	if !ix.needsSetup() {
		return ix, nil
	}
	if err := par.ForCtx(ctx, len(refs), par.Workers(len(refs)), ix.fill); err != nil {
		return nil, err
	}
	return ix, nil
}

// OneNNSnapshotCtx finds, in parallel, the nearest reference of every
// query — the matrix-free replacement for eval.Matrix + argmin — serving
// per-reference state from the optional snapshot. Neighbors, distances,
// and tie-breaks are identical to exhaustive evaluation. A cancelled
// search stops within one dispatch chunk per worker and returns ctx.Err()
// alongside the partial Result.
func OneNNSnapshotCtx(ctx context.Context, m measure.Measure, queries, refs [][]float64, snap *corpus.Snapshot) (Result, error) {
	ix, err := NewIndexSnapshotCtx(ctx, m, refs, snap)
	if err != nil {
		return Result{}, err
	}
	return searchAllCtx(ctx, ix, queries)
}
