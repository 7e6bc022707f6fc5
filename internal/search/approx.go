package search

import (
	"context"
	"math"

	"repro/internal/ann"
	"repro/internal/corpus"
	"repro/internal/measure"
	"repro/internal/par"
)

// This file exposes the approximate retrieval engine of internal/ann
// through the search package's result shapes: KNNApproxSnapshotCtx runs
// GRAIL embed–index–rerank queries in parallel, one ann.Querier per
// worker, and reports the aggregate approximate-search work alongside the
// familiar Result; 1-NN is k = 1. The candidate budget
// (ann.Config.Candidates) is the recall knob; budgets covering the corpus
// run the exact lower-bound fallback, making the result identical to exact
// search.

// ApproxStats aggregates ann.Stats across the queries of one call.
type ApproxStats struct {
	EmbedDist int64 // embedding-space distance evaluations (tree descents)
	Exact     int64 // exact measure evaluations during re-rank
	LBPruned  int64 // candidates rejected by the lower-bound cascade
	Fallbacks int64 // queries answered by the exact fallback scan
}

func (a *ApproxStats) add(s ann.Stats) {
	a.EmbedDist += int64(s.EmbedDist)
	a.Exact += int64(s.Exact)
	a.LBPruned += int64(s.LBPruned)
	if s.Fallback {
		a.Fallbacks++
	}
}

// ApproxResult is the outcome of an approximate search: per-query nearest
// indices and exact (sanitized) distances — only the candidate sets are
// approximate — plus the work counters.
type ApproxResult struct {
	Indices   []int
	Distances []float64
	// Neighbors holds the per-query top-k lists when k > 1; 1-NN searches
	// leave it nil.
	Neighbors [][]ann.Neighbor
	Stats     ApproxStats
}

// KNNApproxSnapshotCtx answers every query with its approximate k nearest
// references; Neighbors[i] holds query i's top-k sorted by (exact
// distance, index) when k > 1, and Indices/Distances mirror the rank-1
// entries. snap is optional: when it covers refs and holds a fitted ANN
// index for m — the warm path — queries pay only transform + tree descent
// + c exact re-ranks. Otherwise the index is built inline, adopting the
// snapshot's exact-side state for m when it holds one. The build and the
// query fan-out both observe ctx.
func KNNApproxSnapshotCtx(ctx context.Context, m measure.Measure, queries, refs [][]float64, k int, cfg ann.Config, snap *corpus.Snapshot) (ApproxResult, error) {
	if !snap.Covers(refs) {
		snap = nil
	}
	ix := snap.ANNIndex(m)
	if ix == nil {
		var err error
		if ix, err = ann.BuildCtx(ctx, refs, m, cfg, snap.State(m)); err != nil {
			return ApproxResult{}, err
		}
	}
	return approxAllCtx(ctx, ix, queries, k)
}

// OneNNApproxSnapshotCtx is KNNApproxSnapshotCtx with k = 1.
func OneNNApproxSnapshotCtx(ctx context.Context, m measure.Measure, queries, refs [][]float64, cfg ann.Config, snap *corpus.Snapshot) (ApproxResult, error) {
	return KNNApproxSnapshotCtx(ctx, m, queries, refs, 1, cfg, snap)
}

// approxAllCtx fans the queries across workers, one ann.Querier each.
func approxAllCtx(ctx context.Context, ix *ann.Index, queries [][]float64, k int) (ApproxResult, error) {
	n := len(queries)
	res := ApproxResult{Indices: make([]int, n), Distances: make([]float64, n)}
	if k > 1 {
		res.Neighbors = make([][]ann.Neighbor, n)
	}
	workers := par.Workers(n)
	queriers := make([]*ann.Querier, workers)
	stats := make([]ApproxStats, workers)
	err := par.ForShardCtx(ctx, n, workers, func(w, i int) {
		qr := queriers[w]
		if qr == nil {
			qr = ix.NewQuerier()
			queriers[w] = qr
		}
		nbs, st := qr.KNN(queries[i], k)
		stats[w].add(st)
		if len(nbs) == 0 {
			res.Indices[i], res.Distances[i] = -1, math.Inf(1)
		} else {
			res.Indices[i], res.Distances[i] = nbs[0].Index, nbs[0].Dist
		}
		if k > 1 {
			res.Neighbors[i] = nbs
		}
	})
	for _, st := range stats {
		res.Stats.EmbedDist += st.EmbedDist
		res.Stats.Exact += st.Exact
		res.Stats.LBPruned += st.LBPruned
		res.Stats.Fallbacks += st.Fallbacks
	}
	return res, err
}
