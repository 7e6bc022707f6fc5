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
// One block function scans references [lo, hi) for every 1-NN caller,
// from an incumbent. A LowerBounded measure's first incumbent is its seed,
// the reference with the least cascade bound; other measures start
// without one. The references fall into blocks of scanBlock. A call's
// only query runs its blocks on every worker, each from the seed, and
// takes the (distance, index) minimum of their incumbents; several
// queries spread over workers and each scans its blocks in order, carrying
// the incumbent. Either way no block reads another worker's progress, so
// the worker count and the schedule change no decision and no work count.
// As an incumbent may sit at any index, a candidate below it is evaluated
// under the incumbent's distance raised one ulp, and a bound equal to that
// distance prunes only a candidate above it.
//
// Each operation has one path, taking a context and an optional
// corpus.Snapshot: per-series state is the snapshot's measure.Prepared
// when it covers the references and holds state for the measure, and
// measure.PrepareCtx's otherwise.
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
	"sync"

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
// returns an error, rows whose chunk never ran, and a lone query's row,
// hold the zero values (index 0, distance 0) — the caller must treat the
// whole Result as partial. A cancelled leave-one-out returns a zero Result
// instead (see LeaveOneOutGridCtx).
type Result struct {
	Indices   []int
	Distances []float64
	Stats     Stats
}

// Index holds a reference set prepared for repeated pruned 1-NN queries:
// its per-reference state (lower-bound contexts or stateful preparations)
// is one measure.Prepared, adopted from a corpus snapshot or built by
// measure.PrepareCtx, and read-only here. An Index is immutable after
// construction and safe for concurrent use through per-goroutine
// Queriers. NewIndexSnapshotCtx builds one; the grid engine wires every
// candidate through newIndex with the state it obtained.
type Index struct {
	m     measure.Measure
	refs  [][]float64
	lb    measure.LowerBounded
	ea    measure.EarlyAbandoning
	sm    measure.Stateful
	pe    measure.PanelEvaluator
	state measure.Prepared
}

// panelChunk is the number of candidates handed to a PanelEvaluator per
// call in the query scan: large enough to amortize the call and fill the
// engine's 4-lane groups, small enough that the shared best-so-far cutoff
// refreshes frequently.
const panelChunk = 32

// scanBlock is the number of references in one block of the 1-NN scan:
// two panel chunks, so that a lone query over a 1,024-series snapshot has
// sixteen blocks to spread over workers.
const scanBlock = 64

// newIndex wires m's fast paths over refs and their state: the lower-bound
// cascade when the measure is LowerBounded, otherwise the panel kernels of
// a PanelEvaluator, otherwise a Stateful measure's prepared fast path,
// otherwise plain Distance calls; early abandoning whenever available.
// state must be m's measure.Prepared over refs.
func newIndex(m measure.Measure, refs [][]float64, state measure.Prepared) *Index {
	ix := &Index{m: m, refs: refs, state: state}
	ix.ea, _ = m.(measure.EarlyAbandoning)
	if lb, ok := m.(measure.LowerBounded); ok {
		ix.lb = lb
	} else if pe, ok := m.(measure.PanelEvaluator); ok {
		ix.pe = pe
	} else if sm, ok := m.(measure.Stateful); ok {
		ix.sm = sm
	}
	return ix
}

// Querier runs queries against an Index, owning the per-worker reusable
// state (the panel output scratch and the work counters). A Querier is
// NOT safe for concurrent use; create one per goroutine via Index.Querier.
type Querier struct {
	ix   *Index
	pout []float64 // panel output scratch (PanelEvaluator path)
	// Stats accumulates the work performed by this Querier's queries.
	Stats Stats
}

// Querier returns a fresh query handle for the index.
func (ix *Index) Querier() *Querier {
	q := &Querier{ix: ix}
	if ix.pe != nil {
		q.pout = make([]float64, panelChunk)
	}
	return q
}

// Query returns the index of the nearest reference to x and its sanitized
// distance, or (-1, +Inf) when the index is empty. Ties resolve to the
// lowest reference index, exactly as exhaustive evaluation does. Steady
// state is allocation-free for LowerBounded measures and on the panel
// path.
func (q *Querier) Query(x []float64) (best int, dist float64) {
	return q.search(x, -1)
}

// boundPool recycles query-side bound contexts across queries and calls:
// FillBound refills a context of its own kind in place, so a warm query
// allocates no envelope.
var boundPool sync.Pool

// query is one query's scan state, filled once and afterwards only read,
// so the blocks of a lone query share it across workers: the series, its
// bound context (LowerBounded) or prepared state (Stateful), the excluded
// row, and the seed incumbent with its exact distance (-1 and +Inf when
// there is none).
type query struct {
	x        []float64
	cx       measure.BoundContext
	px       any
	skip     int
	seed     int
	seedDist float64
}

// begin fills x's query state, skipping row skip. For a LowerBounded
// measure it also picks and evaluates the seed: the reference with the
// least cascade bound, lowest index on ties. The running minimum is
// LowerBound's cutoff, and a value below the cutoff is the full cascade,
// so the early exit cannot change the argmin. The seed is one pair and
// one full distance, evaluated as a block of one reference with no
// incumbent. release must follow.
func (q *Querier) begin(x []float64, skip int) query {
	ix := q.ix
	qs := query{x: x, skip: skip, seed: -1, seedDist: math.Inf(1)}
	switch {
	case ix.lb != nil:
		qs.cx = ix.lb.FillBound(boundPool.Get(), x)
		seed, cut := -1, math.Inf(1)
		for j, r := range ix.refs {
			if j == skip {
				continue
			}
			if lbv := measure.Sanitize(ix.lb.LowerBound(x, r, qs.cx, ix.state.Bounds[j], cut)); seed < 0 || lbv < cut {
				seed, cut = j, lbv
			}
		}
		if seed >= 0 {
			_, qs.seedDist = q.block(&qs, seed, seed+1, -1, math.Inf(1))
			qs.seed = seed
		}
	case ix.sm != nil:
		qs.px = ix.sm.Prepare(x)
	}
	return qs
}

// release returns the query's bound context to boundPool.
func (qs *query) release() {
	if qs.cx != nil {
		boundPool.Put(qs.cx)
	}
}

// before reports whether (d, j) precedes the incumbent (bestDist, best) in
// the (distance, index) order, the order in which exhaustive evaluation's
// lowest-index tie rule picks a neighbor; best < 0 means no incumbent.
func before(d float64, j int, bestDist float64, best int) bool {
	return best < 0 || d < bestDist || d == bestDist && j < best
}

// cutoff is the cutoff a candidate at index j is evaluated under against
// the incumbent (best, bestDist): the incumbent's distance, raised one ulp
// when j lies below the incumbent, so that a tie is computed exactly and
// wins on its index.
func cutoff(j, best int, bestDist float64) float64 {
	if j < best {
		return math.Nextafter(bestDist, math.Inf(1))
	}
	return bestDist
}

// block is the 1-NN pair loop over references [lo, hi), skipping the
// excluded row and the seed: from the incumbent (best, bestDist) it returns
// the incumbent it leaves, the (distance, index) minimum of the incumbent
// and the block's pairs. A pair's distance comes from its panel chunk when
// the measure is a PanelEvaluator (panelChunk references at a time, under
// the incumbent's cutoff at chunk entry, raised one ulp when the chunk
// starts below the incumbent), from the prepared states when it is
// Stateful, else from DistanceUpTo or Distance; a LowerBounded measure
// first tries its cascade. A bound prunes candidate j when it exceeds the
// incumbent's distance, or equals it with j above the incumbent. Results
// are exact: an abandoned or pruned value is at least the cutoff, so it
// cannot precede the incumbent, while any candidate that does has a true
// distance below its cutoff and therefore an exact value.
func (q *Querier) block(qs *query, lo, hi, best int, bestDist float64) (int, float64) {
	ix, x := q.ix, qs.x
	var out []float64 // the panel chunk's values, out[j-at]
	at := lo
	for j := lo; j < hi; j++ {
		if ix.pe != nil && (j-lo)%panelChunk == 0 {
			at, out = j, q.pout[:min(panelChunk, hi-j)]
			if !ix.pe.PanelDistancesUpTo(x, ix.refs[j:j+len(out)], cutoff(j, best, bestDist), out) {
				// PanelEvaluator declines only a reference of another
				// length: panic as the per-pair Distance would.
				for _, r := range ix.refs[j : j+len(out)] {
					measure.CheckSameLength(x, r)
				}
			}
		}
		if j == qs.skip || j == qs.seed {
			continue
		}
		r := ix.refs[j]
		q.Stats.Pairs++
		cut := cutoff(j, best, bestDist)
		if ix.lb != nil && best >= 0 {
			if lbv := ix.lb.LowerBound(x, r, qs.cx, ix.state.Bounds[j], cut); lbv > bestDist || lbv == bestDist && j > best {
				q.Stats.LBPruned++
				continue
			}
		}
		q.Stats.FullDist++
		var d float64
		switch {
		case out != nil:
			d = out[j-at]
		case ix.sm != nil:
			d = ix.sm.PreparedDistance(qs.px, ix.state.States[j])
		case ix.ea != nil:
			d = ix.ea.DistanceUpTo(x, r, cut)
		default:
			d = ix.m.Distance(x, r)
		}
		if d = measure.Sanitize(d); before(d, j, bestDist, best) {
			best, bestDist = j, d
		}
	}
	return best, bestDist
}

// search answers one query on this Querier, skipping row skip (for
// leave-one-out): its blocks run in order, each from the incumbent the
// previous one left, the first from the seed. As consecutive blocks carry
// their incumbent, this is one block over every reference.
func (q *Querier) search(x []float64, skip int) (int, float64) {
	qs := q.begin(x, skip)
	defer qs.release()
	return q.block(&qs, 0, len(q.ix.refs), qs.seed, qs.seedDist)
}

// lone answers a call's only query with its blocks spread over workers.
// Every block starts from the seed and none reads another's progress, so
// neither the worker count nor the schedule changes a decision or a work
// count; the answer is the (distance, index) minimum of the seed and of
// every block's incumbent. At one worker par runs the blocks inline, the
// same blocks, and a cancelled query stops within one block chunk per
// worker, its row left at the zero values.
func (ix *Index) lone(ctx context.Context, x []float64, res *Result) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	blocks := (len(ix.refs) + scanBlock - 1) / scanBlock
	queriers := make([]*Querier, par.Workers(blocks))
	for w := range queriers {
		queriers[w] = ix.Querier()
	}
	qs := queriers[0].begin(x, -1)
	defer qs.release()
	type hit struct {
		idx  int
		dist float64
	}
	hits := make([]hit, blocks)
	err := par.ForShardCtx(ctx, blocks, len(queriers), func(w, b int) {
		lo := b * scanBlock
		hits[b].idx, hits[b].dist = queriers[w].block(&qs, lo, min(lo+scanBlock, len(ix.refs)), qs.seed, qs.seedDist)
	})
	for _, q := range queriers {
		res.Stats.add(q.Stats)
	}
	if err != nil {
		return err
	}
	best, bestDist := qs.seed, qs.seedDist
	for _, h := range hits {
		if h.idx >= 0 && before(h.dist, h.idx, bestDist, best) {
			best, bestDist = h.idx, h.dist
		}
	}
	res.Indices[0], res.Distances[0] = best, bestDist
	return nil
}

// OneNNCtx is OneNNSnapshotCtx without a snapshot.
func OneNNCtx(ctx context.Context, m measure.Measure, queries, refs [][]float64) (Result, error) {
	return OneNNSnapshotCtx(ctx, m, queries, refs, nil)
}

// searchAllCtx answers every query: a lone query through lone, several
// spread over workers, each with its own Querier and scanned in order.
func searchAllCtx(ctx context.Context, ix *Index, queries [][]float64) (Result, error) {
	n := len(queries)
	res := Result{Indices: make([]int, n), Distances: make([]float64, n)}
	if n == 1 {
		return res, ix.lone(ctx, queries[0], &res)
	}
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
