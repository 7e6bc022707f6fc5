// Package search implements the pruned exact 1-NN engine behind the
// paper's evaluation: instead of materializing the full test-by-train
// dissimilarity matrix, each query scans the references with a best-so-far
// cutoff, rejecting candidates through the measure's lower-bound cascade
// (measure.LowerBounded), abandoning surviving distance computations early
// (measure.EarlyAbandoning), and reusing per-series state
// (measure.Stateful). For exactly symmetric measures the leave-one-out
// variant evaluates each unordered pair once, halving the train-by-train
// work of supervised tuning.
//
// The engine is exact: predicted neighbors — including ties, which resolve
// to the lowest reference index — are identical to exhaustive matrix
// evaluation. Lower bounds only skip candidates that provably cannot beat
// the incumbent, and abandoned computations only certify d >= cutoff.
//
// Each operation has one path, taking a context and an optional
// corpus.Snapshot (nil prepares per-series state inline):
// OneNNSnapshotCtx for 1-NN, LeaveOneOutGridCtx for leave-one-out over one
// or more grid candidates, and KNNApproxSnapshotCtx for approximate
// retrieval. NewIndexSnapshotCtx is the one Index constructor. OneNNCtx,
// LeaveOneOut and OneNNApproxSnapshotCtx are one-line wrappers over those
// paths. Every path observes cancellation at the dispatch chunk
// granularity of internal/par.
package search

import (
	"context"
	"math"

	"repro/internal/corpus"
	"repro/internal/measure"
	"repro/internal/par"
)

// Stats counts the work performed by a search. In the symmetric
// leave-one-out path each unordered pair counts once; everywhere else a
// pair is one query-candidate combination.
type Stats struct {
	Pairs    int64 // candidate pairs examined
	LBPruned int64 // pairs rejected by the lower-bound cascade alone
	PairLB   int64 // pairs rejected by a grid sweep's exact pair-matrix bound
	FullDist int64 // full distance computations started (incl. abandoned)
}

func (s *Stats) add(o Stats) {
	s.Pairs += o.Pairs
	s.LBPruned += o.LBPruned
	s.PairLB += o.PairLB
	s.FullDist += o.FullDist
}

// Result is the outcome of a 1-NN or leave-one-out search: per-query
// nearest reference indices (-1 when there are no candidates) and their
// sanitized distances, plus aggregate work counters. When a 1-NN search
// returns an error, rows whose chunk never ran hold the zero values (index
// 0, distance 0) — the caller must treat the whole Result as partial. A
// cancelled leave-one-out returns a zero Result instead (see
// LeaveOneOutGridCtx).
type Result struct {
	Indices   []int
	Distances []float64
	Stats     Stats
}

// Index holds a reference set prepared for repeated pruned 1-NN queries:
// lower-bound contexts (envelopes) or stateful preparations are computed
// once per reference, or adopted from a corpus snapshot. An Index is
// immutable after construction and safe for concurrent use through
// per-goroutine Queriers. NewIndexSnapshotCtx builds one from newIndex and
// fill; the grid engine wires every candidate through the same pair,
// filling them in its own setup pool.
type Index struct {
	m     measure.Measure
	refs  [][]float64
	lb    measure.LowerBounded
	ea    measure.EarlyAbandoning
	sm    measure.Stateful
	pe    measure.PanelEvaluator
	rctx  []measure.BoundContext
	rprep []any
	// prefilled marks rctx/rprep as adopted from a corpus.Snapshot: already
	// filled, owned by the snapshot, and strictly read-only — no setup pool
	// may fill them and the grid engine's envelope arena must never rebind
	// them.
	prefilled bool
}

// panelChunk is the number of candidates handed to a PanelEvaluator per
// call in the query scan: large enough to amortize the call and fill the
// engine's 4-lane groups, small enough that the shared best-so-far cutoff
// refreshes frequently.
const panelChunk = 32

// newIndex wires m's fast paths over refs: the lower-bound cascade when
// the measure is LowerBounded, otherwise a Stateful measure's prepared
// fast path, otherwise plain Distance calls (batched through the panel
// kernels and early abandoning when available). Per-reference state comes
// from snap when it holds state for m; snap must cover refs or be nil.
// State it does not serve is allocated here and filled by fill.
func newIndex(m measure.Measure, refs [][]float64, snap *corpus.Snapshot) *Index {
	ix := &Index{m: m, refs: refs}
	ix.ea, _ = m.(measure.EarlyAbandoning)
	ix.pe, _ = m.(measure.PanelEvaluator)
	if lb, ok := m.(measure.LowerBounded); ok {
		ix.lb = lb
		if ix.rctx = snap.BoundContexts(m); ix.rctx != nil {
			ix.prefilled = true
		} else {
			ix.rctx = make([]measure.BoundContext, len(refs))
		}
	} else if sm, ok := m.(measure.Stateful); ok {
		ix.sm = sm
		if ix.rprep = snap.Prepared(m); ix.rprep != nil {
			ix.prefilled = true
		} else {
			ix.rprep = make([]any, len(refs))
		}
	}
	return ix
}

// needsSetup reports whether the index still requires per-reference fills;
// snapshot-prefilled state needs none (and must not be overwritten).
func (ix *Index) needsSetup() bool {
	return !ix.prefilled && (ix.rctx != nil || ix.rprep != nil)
}

// fill prepares reference i: a bound-context fill or a prepared state.
func (ix *Index) fill(i int) {
	x := ix.refs[i]
	switch {
	case ix.rctx != nil:
		c := ix.lb.NewBoundContext(len(x))
		c.Fill(x)
		ix.rctx[i] = c
	case ix.rprep != nil:
		ix.rprep[i] = ix.sm.Prepare(x)
	}
}

// Querier runs queries against an Index, owning the per-worker reusable
// state (the query's bound context and work counters). A Querier is NOT
// safe for concurrent use; create one per goroutine via Index.Querier.
type Querier struct {
	ix   *Index
	qctx measure.BoundContext
	pout []float64 // panel output scratch (PanelEvaluator path)
	// Stats accumulates the work performed by this Querier's queries.
	Stats Stats
}

// Querier returns a fresh query handle for the index.
func (ix *Index) Querier() *Querier {
	q := &Querier{ix: ix}
	if ix.lb != nil && len(ix.refs) > 0 {
		q.qctx = ix.lb.NewBoundContext(len(ix.refs[0]))
	}
	if ix.lb == nil && ix.pe != nil {
		q.pout = make([]float64, panelChunk)
	}
	return q
}

// Query returns the index of the nearest reference to x and its sanitized
// distance, or (-1, +Inf) when the index is empty. Ties resolve to the
// lowest reference index, exactly as exhaustive evaluation does. Steady
// state is allocation-free for LowerBounded measures.
func (q *Querier) Query(x []float64) (best int, dist float64) {
	return q.search(x, -1)
}

// search scans the references, skipping index skip (for leave-one-out).
func (q *Querier) search(x []float64, skip int) (int, float64) {
	ix := q.ix
	best, bestDist := -1, math.Inf(1)
	if len(ix.refs) == 0 {
		return best, bestDist
	}
	switch {
	case ix.lb != nil:
		q.qctx.Fill(x)
		for j, r := range ix.refs {
			if j == skip {
				continue
			}
			q.Stats.Pairs++
			if best >= 0 {
				if lbv := ix.lb.LowerBound(x, r, q.qctx, ix.rctx[j], bestDist); lbv >= bestDist {
					q.Stats.LBPruned++
					continue
				}
			}
			q.Stats.FullDist++
			var d float64
			if ix.ea != nil {
				d = measure.Sanitize(ix.ea.DistanceUpTo(x, r, bestDist))
			} else {
				d = measure.Sanitize(ix.m.Distance(x, r))
			}
			if best == -1 || d < bestDist {
				best, bestDist = j, d
			}
		}
	case ix.pe != nil:
		// Batched panel scan: candidates are evaluated panelChunk at a time
		// with the best-so-far at chunk entry as the shared cutoff. Results
		// stay exact: a non-exact (abandoned) out value is >= the chunk
		// cutoff >= the current incumbent, so it fails the strict update,
		// while any candidate that could improve the incumbent has true
		// distance < the entry cutoff and therefore an exact out value.
		// Ascending order and strict < reproduce lowest-index tie-breaking.
		for start := 0; start < len(ix.refs); start += panelChunk {
			end := start + panelChunk
			if end > len(ix.refs) {
				end = len(ix.refs)
			}
			chunk := ix.refs[start:end]
			counted := int64(len(chunk))
			if skip >= start && skip < end {
				counted--
			}
			q.Stats.Pairs += counted
			q.Stats.FullDist += counted
			ok := false
			if best >= 0 {
				ok = ix.pe.PanelDistancesUpTo(x, chunk, bestDist, q.pout)
			} else {
				ok = ix.pe.PanelDistances(x, chunk, q.pout)
			}
			if !ok {
				// Declined (ragged chunk): per-pair fallback, same results.
				for j := start; j < end; j++ {
					if j == skip {
						continue
					}
					var d float64
					if ix.ea != nil && best >= 0 {
						d = measure.Sanitize(ix.ea.DistanceUpTo(x, ix.refs[j], bestDist))
					} else {
						d = measure.Sanitize(ix.m.Distance(x, ix.refs[j]))
					}
					if best == -1 || d < bestDist {
						best, bestDist = j, d
					}
				}
				continue
			}
			for j := start; j < end; j++ {
				if j == skip {
					continue
				}
				d := measure.Sanitize(q.pout[j-start])
				if best == -1 || d < bestDist {
					best, bestDist = j, d
				}
			}
		}
	case ix.sm != nil:
		px := ix.sm.Prepare(x)
		for j := range ix.refs {
			if j == skip {
				continue
			}
			q.Stats.Pairs++
			q.Stats.FullDist++
			d := measure.Sanitize(ix.sm.PreparedDistance(px, ix.rprep[j]))
			if best == -1 || d < bestDist {
				best, bestDist = j, d
			}
		}
	default:
		for j, r := range ix.refs {
			if j == skip {
				continue
			}
			q.Stats.Pairs++
			q.Stats.FullDist++
			var d float64
			if ix.ea != nil {
				d = measure.Sanitize(ix.ea.DistanceUpTo(x, r, bestDist))
			} else {
				d = measure.Sanitize(ix.m.Distance(x, r))
			}
			if best == -1 || d < bestDist {
				best, bestDist = j, d
			}
		}
	}
	return best, bestDist
}

// OneNNCtx is OneNNSnapshotCtx without a snapshot.
func OneNNCtx(ctx context.Context, m measure.Measure, queries, refs [][]float64) (Result, error) {
	return OneNNSnapshotCtx(ctx, m, queries, refs, nil)
}

// searchAllCtx runs per-query searches across workers, each with its own
// Querier.
func searchAllCtx(ctx context.Context, ix *Index, queries [][]float64) (Result, error) {
	n := len(queries)
	res := Result{Indices: make([]int, n), Distances: make([]float64, n)}
	workers := par.Workers(n)
	queriers := make([]*Querier, workers)
	err := par.ForShardCtx(ctx, n, workers, func(w, i int) {
		q := queriers[w]
		if q == nil {
			q = ix.Querier()
			queriers[w] = q
		}
		res.Indices[i], res.Distances[i] = q.search(queries[i], -1)
	})
	for _, q := range queriers {
		if q != nil {
			res.Stats.add(q.Stats)
		}
	}
	return res, err
}

// LeaveOneOut finds each training series' nearest other training series —
// the matrix-free criterion of supervised parameter tuning. It is
// LeaveOneOutGridCtx over the single candidate m, without a snapshot or
// cancellation: exactly symmetric measures evaluate each unordered pair
// once, and results are identical to exhaustive evaluation either way.
func LeaveOneOut(m measure.Measure, train [][]float64) Result {
	gr, _ := LeaveOneOutGridCtx(context.Background(), []measure.Measure{m}, train, nil)
	return gr.PerCandidate[0]
}

// halvedEligible reports whether leave-one-out evaluation of m takes the
// symmetric pair-halving path: exactly symmetric, and either lower-bounded
// (the cascade needs per-pair cutoffs) or not stateful (whose prepared fast
// path the full scan exploits better than halving would).
func halvedEligible(m measure.Measure) bool {
	_, stateful := m.(measure.Stateful)
	_, bounded := m.(measure.LowerBounded)
	return measure.IsSymmetric(m) && (bounded || !stateful)
}
