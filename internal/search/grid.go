package search

import (
	"context"
	"math"
	"sync"

	"time"

	"repro/internal/corpus"
	"repro/internal/measure"
	"repro/internal/par"
)

// This file implements the grid tuning engine: leave-one-out 1-NN
// evaluation of an entire parameter grid in one pass, instead of one
// independent leave-one-out scan per candidate. It is also the only
// leave-one-out path: LeaveOneOut is the engine over a single candidate.
// Each candidate prepares its own per-series state (Stateful preparations
// or bound contexts), inline or from a snapshot. Three optimizations
// stack:
//
//  1. Envelope arena. Candidates declaring measure.BoundSharing (DTW
//     bands) rebind one arena of envelope buffers across the sweep instead
//     of allocating per candidate.
//
//  2. Warm-start pruning. Candidates declaring measure.NestedBounds are
//     linked to a dominating candidate evaluated earlier (e.g. the
//     next-narrower DTW band): that candidate's exact per-row 1-NN
//     distances are upper bounds here, so each row's best-so-far cutoff is
//     primed just above the bound and the EarlyAbandoning/LowerBounded
//     cascade prunes from the first pair. Primed rows only ever record
//     exact distances (a value is recorded only when it beats the row's
//     cutoff, which certifies the computation was not abandoned), and a
//     row that ends without a neighbor — possible only when the declared
//     bound is unachievable, e.g. non-finite inputs breaking DP
//     monotonicity — is repaired by an exact cold scan. Results are
//     therefore bit-identical to the per-candidate engine regardless of
//     the declarations.
//
//     The dual bound: when the grid contains a bottom candidate — one
//     dominated by every other, e.g. the full DTW window or LCSS at the
//     loosest band and threshold — it is evaluated first as a complete
//     exact pair matrix. By domination, entry (i, j) lower-bounds every
//     other candidate's distance on that pair, a bound far tighter than
//     any envelope at wide bands and available even for measures with no
//     lower bounds of their own (LCSS, EDR). The matrix prune applies only
//     to pairs of finite series, the precondition of the NestedBounds
//     contract, so non-finite inputs cannot corrupt it.
//
//  3. Sweep-level parallelism. Candidates are partitioned into waves by
//     warm-start dependency depth; within a wave every (candidate, row
//     chunk) work item feeds one shared worker pool, so small training
//     sets still saturate all cores across independent candidates.

// GridStats counts the work of a grid evaluation beyond the per-pair
// counters of Stats.
type GridStats struct {
	Candidates int   // grid candidates evaluated
	Waves      int   // warm-start dependency depth of the schedule
	Rows       int64 // leave-one-out rows evaluated (candidates x series)
	WarmRows   int64 // rows primed with a finite warm-start cutoff
	Repaired   int64 // warm rows re-scanned cold (unachievable bound)
	PrepTotal  int64 // per-series preparations of the Stateful candidates
	// PrepShared is always 0: no candidate shares another's preparation.
	// It is kept because the end-to-end benchmark (cmd/tsperf) reads it,
	// until that benchmark next changes.
	PrepShared   int64
	PrepSnapshot int64 // per-series states served by a corpus snapshot
	Search       Stats // pair counters over the whole sweep
	WarmSearch   Stats // pair counters restricted to warm-primed candidates
}

// WarmPruneRate is the fraction of candidate pairs in warm-primed
// candidates that were rejected without a distance computation — by the
// pair-matrix bound or the lower-bound cascade.
func (g GridStats) WarmPruneRate() float64 {
	if g.WarmSearch.Pairs == 0 {
		return 0
	}
	return float64(g.WarmSearch.LBPruned+g.WarmSearch.PairLB) / float64(g.WarmSearch.Pairs)
}

// GridResult is the outcome of a grid evaluation: one Result per candidate
// (in grid order, each bit-identical to LeaveOneOut on that candidate)
// plus the sweep-level work counters.
type GridResult struct {
	PerCandidate []Result
	Stats        GridStats
}

// tuneIndex holds a parameter grid prepared for one-pass leave-one-out
// evaluation over a fixed training set: warm-start links between nested
// candidates and the bottom candidate's pair matrix.
type tuneIndex struct {
	cands    []measure.Measure
	train    [][]float64
	warmFrom []int     // dominating candidate whose results prime this one, or -1
	depth    []int     // warm-start chain depth (wave number)
	bottom   int       // pair-matrix candidate (dominated by the covered set), or -1
	covered  []bool    // candidate k is lower-bounded by the bottom's matrix
	pairD    []float64 // n*n exact distances of the bottom candidate
	finite   []bool    // series i contains only finite values

	// snap optionally serves per-series state (prepared states, bound
	// contexts, finiteness) instead of computing it inline; nil unless the
	// snapshot covers train. Snapshot state is read-only: it is never
	// rebound, refilled, or donated to the bound arena.
	snap *corpus.Snapshot
}

// newTuneIndex analyzes the grid's structure: warm-start links via
// measure.NestedBounds (each candidate linked to the latest earlier
// candidate that dominates it — the tightest bound in a
// monotone-ordered grid). snap is kept only when it covers train.
func newTuneIndex(cands []measure.Measure, train [][]float64, snap *corpus.Snapshot) *tuneIndex {
	ti := &tuneIndex{
		cands:    cands,
		train:    train,
		warmFrom: make([]int, len(cands)),
		depth:    make([]int, len(cands)),
		bottom:   findBottom(cands, train),
		covered:  make([]bool, len(cands)),
	}
	if snap.Covers(train) {
		ti.snap = snap
	}
	var bottomNB measure.NestedBounds
	if ti.bottom >= 0 {
		bottomNB = cands[ti.bottom].(measure.NestedBounds)
	}
	for k, m := range cands {
		ti.warmFrom[k] = -1
		if bottomNB != nil && k != ti.bottom {
			ti.covered[k] = bottomNB.DominatedBy(m)
		}
		// A warm link only pays when the candidate can turn a primed cutoff
		// into skipped work: through the halved path's own cascade, or
		// through the engine's pair-matrix bound when covered by a bottom.
		_, ea := m.(measure.EarlyAbandoning)
		_, lb := m.(measure.LowerBounded)
		prunable := ea || lb || ti.covered[k]
		if nb, ok := m.(measure.NestedBounds); ok && k != ti.bottom && prunable && halvedEligible(m) {
			// The bottom itself is a valid warm source when it dominates k
			// (its results exist before every wave); DominatedBy rejects it
			// otherwise, like any non-dominating candidate.
			for j := k - 1; j >= 0; j-- {
				if nb.DominatedBy(cands[j]) {
					ti.warmFrom[k] = j
					ti.depth[k] = ti.depth[j] + 1
					break
				}
			}
		}
	}
	return ti
}

// maxPairMatrix caps the training-set size for which the bottom-candidate
// pair matrix is materialized (n*n float64s).
const maxPairMatrix = 2048

// findBottom selects the pair-matrix candidate: the NestedBounds candidate
// minimizing the estimated sweep cost of computing its full exact pair
// matrix (one Distance per unordered pair) plus evaluating the candidates
// it does NOT cover through the ordinary warm path. Covering many
// candidates is worth little if the bottom itself is expensive — on the
// DTW grid the full window covers everything but costs several times the
// widest banded candidate, which covers all bands and leaves only the full
// window to the warm path — so per-candidate costs are probed with a few
// timed Distance calls. The probe only picks between exact strategies; a
// noisy reading costs speed, never correctness. Returns -1 when no bottom
// beats running the whole grid through the warm path.
func findBottom(cands []measure.Measure, train [][]float64) int {
	n := len(train)
	if len(cands) < 3 || n < 2 || n > maxPairMatrix {
		return -1
	}
	type nested struct {
		k  int
		nb measure.NestedBounds
	}
	var cand []nested
	for k, m := range cands {
		if nb, ok := m.(measure.NestedBounds); ok && halvedEligible(m) {
			cand = append(cand, nested{k, nb})
		}
	}
	if len(cand) < 3 {
		return -1
	}
	costs := make([]float64, len(cands))
	for k, m := range cands {
		costs[k] = probeDistanceCost(m, train[0], train[1])
	}
	// An uncovered candidate's warm path computes roughly half its pairs;
	// the matrix computes every pair once.
	halfPairs := float64(n) * float64(n-1) / 4
	fullPairs := 2 * halfPairs
	best, bestScore := -1, 0.0
	for k := range cands {
		bestScore += costs[k] * halfPairs // the no-bottom baseline
	}
	for _, c := range cand {
		score := costs[c.k] * fullPairs
		for j := range cands {
			if j != c.k && !c.nb.DominatedBy(cands[j]) {
				score += costs[j] * halfPairs
			}
		}
		if score < bestScore {
			best, bestScore = c.k, score
		}
	}
	return best
}

// probeDistanceCost times a few Distance calls on one training pair and
// returns the fastest, a robust-enough relative cost signal for
// findBottom's strategy choice.
func probeDistanceCost(m measure.Measure, x, y []float64) float64 {
	best := math.Inf(1)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		m.Distance(x, y)
		if dt := float64(time.Since(t0)); dt < best {
			best = dt
		}
	}
	return best
}

// LeaveOneOutGridCtx evaluates every candidate's leave-one-out 1-NN result
// in one pass; a single candidate is plain leave-one-out. Each
// per-candidate Result — neighbor indices, distances, and tie-breaks — is
// identical to exhaustive evaluation of that candidate alone. snap is
// optional: when it covers train it serves prepared states, bound
// contexts, and finiteness flags, with bitwise-identical results.
//
// A cancelled sweep stops within one dispatch chunk per worker and returns
// ctx.Err() with a partially-filled GridResult: candidates from completed
// waves hold exact results, the rest hold zero Results. A cancelled
// single-candidate leave-one-out therefore returns a zero Result.
func LeaveOneOutGridCtx(ctx context.Context, cands []measure.Measure, train [][]float64, snap *corpus.Snapshot) (GridResult, error) {
	return newTuneIndex(cands, train, snap).evaluate(ctx)
}

// evaluate runs the full grid schedule: the bottom candidate's pair
// matrix, then each warm-start wave through one pooled dispatch.
func (ti *tuneIndex) evaluate(ctx context.Context) (GridResult, error) {
	res := GridResult{PerCandidate: make([]Result, len(ti.cands))}
	st := &res.Stats
	st.Candidates = len(ti.cands)
	n := len(ti.train)
	for _, m := range ti.cands {
		if _, ok := m.(measure.Stateful); ok {
			st.PrepTotal += int64(n)
		}
	}

	if ti.bottom >= 0 {
		if ti.snap != nil {
			ti.finite = ti.snap.Finite()
		} else {
			ti.finite = make([]bool, n)
			if err := par.ForCtx(ctx, n, par.Workers(n), func(i int) {
				ti.finite[i] = allFinite(ti.train[i])
			}); err != nil {
				return res, err
			}
		}
		if err := ti.evaluateBottom(ctx, &res.PerCandidate[ti.bottom], st); err != nil {
			return res, err
		}
	}

	maxDepth := 0
	for _, d := range ti.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	waves := make([][]int, maxDepth+1)
	for k, d := range ti.depth {
		if k == ti.bottom {
			continue
		}
		waves[d] = append(waves[d], k)
	}
	st.Waves = len(waves)
	if ti.bottom >= 0 {
		st.Waves++ // the pair-matrix phase
	}

	arena := &boundArena{}
	for _, wave := range waves {
		if err := ti.evaluateWave(ctx, wave, arena, res.PerCandidate, st); err != nil {
			return res, err
		}
	}
	return res, nil
}

// allFinite reports whether every value of x is finite.
func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// evaluateBottom computes the bottom candidate's complete exact pair
// matrix (each unordered pair once, in parallel) and derives its
// leave-one-out result from it — bit-identical to LeaveOneOut, since every
// recorded value there is exact and ties resolve to the lowest index
// either way. The matrix then serves as the per-pair lower bound of every
// other candidate.
func (ti *tuneIndex) evaluateBottom(ctx context.Context, r *Result, st *GridStats) error {
	m := ti.cands[ti.bottom]
	n := len(ti.train)
	ti.pairD = make([]float64, n*n)
	workers := par.Workers(n)
	if err := par.ForShardCtx(ctx, n, workers, func(_, i int) {
		xi := ti.train[i]
		row := ti.pairD[i*n:]
		for j := i + 1; j < n; j++ {
			d := measure.Sanitize(m.Distance(xi, ti.train[j]))
			row[j] = d
			ti.pairD[j*n+i] = d
		}
	}); err != nil {
		ti.pairD = nil // partially filled: unusable as a bound
		return err
	}
	r.Indices = make([]int, n)
	r.Distances = make([]float64, n)
	if err := par.ForCtx(ctx, n, workers, func(i int) {
		best, bestDist := -1, math.Inf(1)
		row := ti.pairD[i*n : (i+1)*n]
		for j, d := range row {
			if j == i {
				continue
			}
			if best == -1 || d < bestDist {
				best, bestDist = j, d
			}
		}
		r.Indices[i], r.Distances[i] = best, bestDist
	}); err != nil {
		*r = Result{}
		return err
	}
	pairs := int64(n) * int64(n-1) / 2
	r.Stats = Stats{Pairs: pairs, FullDist: pairs}
	st.Rows += int64(n)
	st.Search.add(r.Stats)
	return nil
}

// boundArena recycles bound-context slices across BoundSharing candidates:
// one sweep over a DTW band grid allocates envelopes once.
type boundArena struct {
	mu      sync.Mutex
	entries []*arenaEntry
}

type arenaEntry struct {
	owner measure.Measure // candidate whose parameters last filled ctxs
	ctxs  []measure.BoundContext
	inUse bool
}

// checkout hands a compatible free entry to m, or reports none.
func (a *boundArena) checkout(m measure.BoundSharing) *arenaEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, e := range a.entries {
		if !e.inUse && m.SharesBounds(e.owner) {
			e.inUse = true
			return e
		}
	}
	return nil
}

// checkin registers (or releases) an entry after its candidate completed.
func (a *boundArena) checkin(e *arenaEntry, owner measure.Measure, fresh bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e.owner = owner
	e.inUse = false
	if fresh {
		a.entries = append(a.entries, e)
	}
}

// candEval is one candidate's in-flight state during a wave.
type candEval struct {
	k      int // candidate index in the grid
	m      measure.Measure
	halved bool
	warm   []float64 // exact per-row upper bounds from the warm source
	pairD  []float64 // n*n exact lower bounds from the bottom candidate
	finite []bool    // per-series finiteness (pairD precondition)
	n      int

	// ix holds the candidate's fast paths and per-series state: the
	// Querier's index on the scan path, the bound contexts (ix.rctx) of
	// the pair scan on the halved path.
	ix    *Index
	entry *arenaEntry // non-nil when ix.rctx came from the arena
	bs    measure.BoundSharing
}

// looLocal is one worker's private view of one halved candidate: row
// incumbents, primed flags, and work counters.
type looLocal struct {
	dist   []float64
	idx    []int
	primed []bool
	stats  Stats
}

// evaluateWave evaluates one dependency wave: per-series setup and the row
// scans of every candidate in the wave, each through a single pooled
// dispatch over flattened (candidate, chunk) items. On cancellation the
// wave's candidates are left as zero Results (partial worker-local scans
// are never merged — a half-scanned row would not be exact) and the
// context error is returned.
func (ti *tuneIndex) evaluateWave(ctx context.Context, wave []int, arena *boundArena, out []Result, st *GridStats) error {
	n := len(ti.train)
	evals := make([]*candEval, len(wave))
	for w, k := range wave {
		ce := &candEval{k: k, m: ti.cands[k], halved: halvedEligible(ti.cands[k]), n: n}
		if src := ti.warmFrom[k]; src >= 0 {
			ce.warm = out[src].Distances
		}
		if ti.pairD != nil && ti.covered[k] {
			ce.pairD, ce.finite = ti.pairD, ti.finite
		}
		// Snapshot-owned state arrives filled and read-only. It must never
		// enter the arena: a later candidate would rebind (mutate) it,
		// corrupting the immutable snapshot.
		ce.ix = newIndex(ce.m, ti.train, ti.snap)
		switch {
		case ce.ix.prefilled:
			st.PrepSnapshot += int64(n)
		case ce.halved && ce.ix.rctx != nil:
			if ce.bs, _ = ce.m.(measure.BoundSharing); ce.bs != nil {
				if ce.entry = arena.checkout(ce.bs); ce.entry != nil {
					ce.ix.rctx = ce.entry.ctxs
				}
			}
		}
		if !ce.halved {
			// Pre-size the result so scan workers can write rows directly.
			out[k] = Result{Indices: make([]int, n), Distances: make([]float64, n)}
		}
		evals[w] = ce
	}

	// Per-series setup pool: bound-context and preparation fills for every
	// candidate that needs them, flattened across the wave.
	// Snapshot-served candidates need none.
	var setupCands []*candEval
	for _, ce := range evals {
		if ce.ix.needsSetup() {
			setupCands = append(setupCands, ce)
		}
	}
	if len(setupCands) > 0 {
		total := len(setupCands) * n
		if err := par.ForCtx(ctx, total, par.Workers(total), func(item int) {
			ce := setupCands[item/n]
			i := item % n
			if ce.entry != nil {
				// An arena-held bound context is rebound in place.
				ce.ix.rctx[i] = ce.bs.RebindBoundContext(ce.ix.rctx[i], ti.train[i])
			} else {
				ce.ix.fill(i)
			}
		}); err != nil {
			clearWave(evals, out)
			return err
		}
	}

	// Scan pool: (candidate, row chunk) items through one dispatch.
	totalRows := len(wave) * n
	workers := par.Workers(totalRows)
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	chunksPerCand := (n + chunk - 1) / chunk
	items := len(wave) * chunksPerCand
	locals := make([][]*looLocal, workers)
	queriers := make([][]*Querier, workers)
	scanErr := par.ForShardCtx(ctx, items, workers, func(worker, item int) {
		w := item / chunksPerCand
		c := item % chunksPerCand
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		ce := evals[w]
		if ce.halved {
			if locals[worker] == nil {
				locals[worker] = make([]*looLocal, len(wave))
			}
			l := locals[worker][w]
			if l == nil {
				l = newLooLocal(n, ce.warm)
				locals[worker][w] = l
			}
			ce.scanHalvedRows(ti.train, l, lo, hi)
		} else {
			if queriers[worker] == nil {
				queriers[worker] = make([]*Querier, len(wave))
			}
			q := queriers[worker][w]
			if q == nil {
				q = ce.ix.Querier()
				queriers[worker][w] = q
			}
			r := &out[ce.k]
			if r.Indices == nil {
				// Rows of a scan candidate are written directly; the slices
				// are shared by every worker but each row has one writer.
				// Allocation races are avoided by pre-sizing below.
				panic("search: scan result not pre-sized")
			}
			for i := lo; i < hi; i++ {
				r.Indices[i], r.Distances[i] = q.search(ti.train[i], i)
			}
		}
	})

	if scanErr != nil {
		// Do not merge: worker locals may hold rows whose scan was cut
		// short mid-candidate.
		clearWave(evals, out)
		return scanErr
	}

	// Finalize: merge halved locals (with cold repair of unresolved primed
	// rows), gather counters, release arena entries.
	for w, ce := range evals {
		r := &out[ce.k]
		st.Rows += int64(n)
		if ce.halved {
			ti.mergeHalved(ce, locals, w, r, st)
		} else {
			for _, qs := range queriers {
				if qs != nil && qs[w] != nil {
					r.Stats.add(qs[w].Stats)
				}
			}
		}
		st.Search.add(r.Stats)
		if ce.warm != nil {
			st.WarmSearch.add(r.Stats)
			for _, u := range ce.warm {
				if !math.IsInf(math.Nextafter(u, math.Inf(1)), 1) {
					st.WarmRows++
				}
			}
		}
		if ce.entry != nil {
			arena.checkin(ce.entry, ce.m, false)
		} else if ce.bs != nil {
			arena.checkin(&arenaEntry{ctxs: ce.ix.rctx}, ce.m, true)
		}
	}
	return nil
}

// clearWave zeroes the Results of a cancelled wave: scan-path rows already
// written to out are exact but incomplete, so callers see all-or-nothing
// per candidate.
func clearWave(evals []*candEval, out []Result) {
	for _, ce := range evals {
		out[ce.k] = Result{}
	}
}

// newLooLocal builds a worker's private incumbent arrays, priming rows
// whose warm-start bound is finite: the cutoff sits one ulp above the
// dominating candidate's exact distance, so every distance at or below the
// bound — in particular the row's true minimum, when the declared
// domination holds — survives pruning and is computed exactly, while
// anything provably worse is rejected from the first pair.
func newLooLocal(n int, warm []float64) *looLocal {
	l := &looLocal{
		dist:   make([]float64, n),
		idx:    make([]int, n),
		primed: make([]bool, n),
	}
	inf := math.Inf(1)
	for i := range l.dist {
		l.dist[i] = inf
		l.idx[i] = -1
		if warm != nil {
			if p := math.Nextafter(warm[i], inf); !math.IsInf(p, 1) {
				l.dist[i] = p
				l.primed[i] = true
			}
		}
	}
	return l
}

// scanHalvedRows runs rows [lo, hi) of the halved pair scan for one
// candidate into the worker's locals, evaluating each unordered pair once.
// Pair (i, j) is examined with the cutoff max(best_i, best_j), so a pruned
// or abandoned computation certifies that neither row can improve. Within
// a worker, contributions to any row arrive in increasing candidate order
// (rows are dispatched in increasing order and row i's own scan ascends),
// and mergeHalved takes the lexicographic (distance, index) minimum across
// workers — together this reproduces exhaustive first-lowest-index
// tie-breaking exactly. A primed row may carry a finite cutoff before any
// incumbent exists, in which case recording still requires d < cutoff —
// which certifies d is exact (DistanceUpTo only abandons at or above its
// cutoff). Unprimed incumbent-less rows record their first candidate,
// whose infinite cutoff makes d exact.
func (ce *candEval) scanHalvedRows(train [][]float64, l *looLocal, lo, hi int) {
	n := len(train)
	lb, ea, ctxs := ce.ix.lb, ce.ix.ea, ce.ix.rctx
	for i := lo; i < hi; i++ {
		xi := train[i]
		var pairRow []float64
		if ce.pairD != nil && ce.finite[i] {
			pairRow = ce.pairD[i*ce.n:]
		}
		for j := i + 1; j < n; j++ {
			cutoff := l.dist[i]
			if l.dist[j] > cutoff {
				cutoff = l.dist[j]
			}
			l.stats.Pairs++
			finite := !math.IsInf(cutoff, 1)
			// The bottom candidate's exact distance on this pair lower-bounds
			// ours (NestedBounds, valid on finite series): one array read
			// prunes without touching envelopes or the DP.
			if pairRow != nil && finite && ce.finite[j] && pairRow[j] >= cutoff {
				l.stats.PairLB++
				continue
			}
			if lb != nil && finite {
				if lbv := lb.LowerBound(xi, train[j], ctxs[i], ctxs[j], cutoff); lbv >= cutoff {
					l.stats.LBPruned++
					continue
				}
			}
			l.stats.FullDist++
			var d float64
			if ea != nil {
				d = measure.Sanitize(ea.DistanceUpTo(xi, train[j], cutoff))
			} else {
				d = measure.Sanitize(ce.m.Distance(xi, train[j]))
			}
			// A primed row records only strict improvements over its cutoff
			// (always exact); an unprimed row additionally records its first
			// candidate, whose infinite cutoff makes d exact.
			if d < l.dist[i] || (l.idx[i] == -1 && !l.primed[i]) {
				l.dist[i], l.idx[i] = d, j
			}
			if d < l.dist[j] || (l.idx[j] == -1 && !l.primed[j]) {
				l.dist[j], l.idx[j] = d, i
			}
		}
	}
}

// mergeHalved merges the workers' locals for one halved candidate into its
// Result, repairing any row no worker resolved — which happens only when a
// primed cutoff proved unachievable (a violated domination declaration,
// possible on non-finite inputs) — with an exact cold scan.
func (ti *tuneIndex) mergeHalved(ce *candEval, locals [][]*looLocal, w int, r *Result, st *GridStats) {
	n := len(ti.train)
	r.Indices = make([]int, n)
	r.Distances = make([]float64, n)
	for i := 0; i < n; i++ {
		bd, bi := math.Inf(1), -1
		for _, ls := range locals {
			if ls == nil || ls[w] == nil || ls[w].idx[i] == -1 {
				continue
			}
			l := ls[w]
			if bi == -1 || l.dist[i] < bd || (l.dist[i] == bd && l.idx[i] < bi) {
				bd, bi = l.dist[i], l.idx[i]
			}
		}
		if bi == -1 && ce.warm != nil && n > 1 {
			bi, bd = ce.coldRow(ti.train, i)
			st.Repaired++
		}
		r.Indices[i], r.Distances[i] = bi, bd
	}
	for _, ls := range locals {
		if ls != nil && ls[w] != nil {
			r.Stats.add(ls[w].stats)
		}
	}
}

// coldRow recomputes one leave-one-out row exhaustively: exact distances,
// first-lowest-index tie-breaking — the reference semantics.
func (ce *candEval) coldRow(train [][]float64, i int) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for j := range train {
		if j == i {
			continue
		}
		d := measure.Sanitize(ce.m.Distance(train[i], train[j]))
		if best == -1 || d < bestDist {
			best, bestDist = j, d
		}
	}
	return best, bestDist
}
