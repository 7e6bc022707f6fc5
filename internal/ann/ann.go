// Package ann implements approximate nearest-neighbor retrieval with the
// GRAIL embed–index–rerank pipeline: a GRAIL embedder is fitted once on
// landmark series drawn from the corpus, every corpus series is
// transformed into a short Euclidean representation, the representations
// are indexed in a k-NN-capable VP-tree, and each query retrieves the
// top-c candidates in embedding space before re-ranking them with the
// exact measure through the pruned cascade (lower bounds, early
// abandoning, prepared states). The candidate budget c is the recall
// knob: c = n degenerates to an exact scan, small c trades recall for
// throughput. When the budget covers the corpus the engine skips the
// tree entirely and runs the exact pruned scan — the lower-bound
// fallback — so results are never worse than exact search on corpora too
// small to benefit from approximation.
//
// The package sits below internal/corpus (snapshots own a fitted Index
// per measure) and internal/search (KNNApproxSnapshotCtx drives Queriers
// in parallel); it must not import either.
package ann

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/embedding"
	"repro/internal/index"
	"repro/internal/lockstep"
	"repro/internal/measure"
)

// Neighbor re-exports the index package's k-NN result type: a reference
// index and its sanitized distance.
type Neighbor = index.Neighbor

// Default knobs: DefaultDim keeps the representation short enough that a
// tree descent plus c re-ranks beats a linear exact scan by a wide
// margin while preserving 1-NN structure; DefaultGamma matches the SINK
// configuration of embedding.All.
const (
	DefaultDim   = 64
	DefaultGamma = 5
)

// Config parameterizes an ANN index.
type Config struct {
	// Dim is the GRAIL representation length (0 means DefaultDim). The
	// effective dimension never exceeds the corpus size.
	Dim int
	// Gamma is the SINK kernel parameter of the embedder (0 means
	// DefaultGamma).
	Gamma float64
	// Candidates is the re-rank budget c: how many embedding-space
	// neighbors are verified with the exact measure per query. 0 selects
	// the adaptive default max(32, n/16), which keeps recall high on small
	// corpora (where it covers everything and triggers the exact
	// fallback) while bounding re-rank cost at scale. Budgets >= n always
	// run the exact fallback scan.
	Candidates int
	// Seed drives landmark sampling and tree construction.
	Seed int64
}

func (c Config) dim() int {
	if c.Dim > 0 {
		return c.Dim
	}
	return DefaultDim
}

func (c Config) gamma() float64 {
	if c.Gamma != 0 {
		return c.Gamma
	}
	return DefaultGamma
}

// candidates resolves the effective budget for a corpus of n series.
func (c Config) candidates(n int) int {
	if c.Candidates > 0 {
		return c.Candidates
	}
	b := n / 16
	if b < 32 {
		b = 32
	}
	return b
}

// Stats reports the work done by one approximate query.
type Stats struct {
	// EmbedDist counts Euclidean distance evaluations in embedding space
	// (the VP-tree descent).
	EmbedDist int
	// Exact counts exact measure evaluations during re-rank (or the
	// fallback scan).
	Exact int
	// LBPruned counts candidates rejected by the lower-bound cascade
	// without an exact computation.
	LBPruned int
	// Fallback reports that the query ran the exact lower-bound scan over
	// the whole corpus (budget >= n): the result is exact, recall 1.
	Fallback bool
}

// Index is a fitted embed–index–rerank structure over one corpus and one
// exact measure. It is immutable after construction and safe for
// concurrent use through per-goroutine Queriers.
type Index struct {
	m    measure.Measure
	refs [][]float64
	cfg  Config

	embedder *embedding.GRAIL
	reps     [][]float64
	tree     *index.VPTree

	// Optional exact fast paths, resolved once, and the per-reference
	// state they read.
	lb       measure.LowerBounded
	ea       measure.EarlyAbandoning
	stateful measure.Stateful
	state    measure.Prepared
}

// BuildCtx fits the GRAIL embedder on the corpus and embeds every series
// in one pass (embedding.GRAIL.FitTransformCtx: the landmark Gram comes
// from the landmark rows of the corpus's kernel matrix, so no landmark
// pair is computed twice), and indexes the representations; ctx is
// observed by the fit, its row and projection fan-outs, the tree build
// and the exact re-rank state's preparation. st is that state when the
// caller already holds it (a corpus snapshot's measure.Prepared for m);
// its zero value prepares it here through measure.PrepareCtx. A non-zero st must hold one entry
// per reference in each non-nil slice. An empty corpus builds an empty
// index whose searches return no neighbors.
func BuildCtx(ctx context.Context, refs [][]float64, m measure.Measure, cfg Config, st measure.Prepared) (*Index, error) {
	ix := &Index{m: m, refs: refs, cfg: cfg}
	ix.lb, _ = m.(measure.LowerBounded)
	ix.ea, _ = m.(measure.EarlyAbandoning)
	ix.stateful, _ = m.(measure.Stateful)
	if len(refs) == 0 {
		return ix, nil
	}
	if st.Bounds != nil && len(st.Bounds) != len(refs) {
		panic(fmt.Sprintf("ann: %d adopted bound contexts for %d series", len(st.Bounds), len(refs)))
	}
	if st.States != nil && len(st.States) != len(refs) {
		panic(fmt.Sprintf("ann: %d adopted prepared states for %d series", len(st.States), len(refs)))
	}

	dim := cfg.dim()
	if dim > len(refs) {
		dim = len(refs)
	}
	ix.embedder = &embedding.GRAIL{Gamma: cfg.gamma(), Dim: dim, Seed: cfg.Seed}
	reps, err := ix.embedder.FitTransformCtx(ctx, refs)
	if err != nil {
		return nil, err
	}
	ix.reps = reps
	tree, err := index.NewVPTreeCtx(ctx, ix.reps, lockstep.Euclidean(), cfg.Seed)
	if err != nil {
		return nil, err
	}
	ix.tree = tree
	if st.Bounds == nil && st.States == nil {
		if st, err = measure.PrepareCtx(ctx, m, refs); err != nil {
			return nil, err
		}
	}
	ix.state = st
	return ix, nil
}

// Size returns the number of indexed series.
func (ix *Index) Size() int { return len(ix.refs) }

// Measure returns the exact measure candidates are re-ranked with.
func (ix *Index) Measure() measure.Measure { return ix.m }

// Candidates returns the effective per-query candidate budget.
func (ix *Index) Candidates() int { return ix.cfg.candidates(len(ix.refs)) }

// Transform maps a query into the index's embedding space.
func (ix *Index) Transform(q []float64) []float64 { return ix.embedder.Transform(q) }

// Querier runs approximate queries against one Index. Each query takes
// its query-side bound context from boundPool and returns it, so a
// Querier holds no scratch of its own and is cheap to create.
type Querier struct {
	ix *Index
}

// boundPool recycles query-side bound contexts across queries and
// Queriers: FillBound refills a context of its own kind in place, so a
// warm re-rank allocates no envelope.
var boundPool sync.Pool

// NewQuerier returns a query handle for concurrent use.
func (ix *Index) NewQuerier() *Querier {
	return &Querier{ix: ix}
}

// OneNN returns the approximate nearest neighbor of q: the best of the
// top-c embedding-space candidates under the exact measure, or the exact
// neighbor when the budget covers the corpus. It returns (-1, +Inf) on
// an empty index.
func (qr *Querier) OneNN(q []float64) (best int, dist float64, stats Stats) {
	nbs, stats := qr.KNN(q, 1)
	if len(nbs) == 0 {
		return -1, math.Inf(1), stats
	}
	return nbs[0].Index, nbs[0].Dist, stats
}

// KNN returns the approximate k nearest neighbors of q sorted ascending
// by (exact distance, index). All k results are exact distances; only
// the candidate set is approximate. Fewer than k neighbors are returned
// only when the index holds fewer than k series.
func (qr *Querier) KNN(q []float64, k int) ([]index.Neighbor, Stats) {
	ix := qr.ix
	var stats Stats
	n := len(ix.refs)
	if k <= 0 || n == 0 {
		return nil, stats
	}
	if k > n {
		k = n
	}
	c := ix.Candidates()
	if c < k {
		c = k
	}
	if c >= n || ix.tree == nil {
		// Exact lower-bound fallback: the budget covers the corpus, so
		// skip the embedding round-trip and run the pruned exact scan.
		stats.Fallback = true
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return qr.rerank(q, all, k, &stats), stats
	}
	cands, embedDist := ix.tree.KNN(ix.embedder.Transform(q), c)
	stats.EmbedDist = embedDist
	order := make([]int, len(cands))
	for i, nb := range cands {
		order[i] = nb.Index
	}
	return qr.rerank(q, order, k, &stats), stats
}

// rerank computes exact distances for the candidate indices (in the
// given order — embedding-space-ascending, so the cutoff tightens fast)
// and returns the best k by (distance, index). The cascade per
// candidate: lower bound against the current kth-best cutoff, then
// early-abandoning exact distance, then prepared or plain exact.
func (qr *Querier) rerank(q []float64, cands []int, k int, stats *Stats) []index.Neighbor {
	ix := qr.ix
	var pq any
	if ix.stateful != nil {
		pq = ix.stateful.Prepare(q)
	}
	var cq measure.BoundContext
	if ix.lb != nil {
		cq = ix.lb.FillBound(boundPool.Get(), q)
		defer boundPool.Put(cq)
	}
	h := make(index.KNNHeap, 0, k)
	for _, i := range cands {
		cutoff := h.Cutoff(k)
		if ix.lb != nil && ix.state.Bounds != nil && cutoff < math.Inf(1) {
			if lb := ix.lb.LowerBound(q, ix.refs[i], cq, ix.state.Bounds[i], cutoff); lb >= cutoff {
				stats.LBPruned++
				continue
			}
		}
		var d float64
		switch {
		case ix.ea != nil && cutoff < math.Inf(1):
			d = ix.ea.DistanceUpTo(q, ix.refs[i], cutoff)
			stats.Exact++
			if !(d < cutoff) {
				// DistanceUpTo only certifies d >= cutoff here, not the
				// exact value; the candidate cannot improve the heap, and
				// offering a possibly-abandoned value would corrupt a tie.
				continue
			}
		case pq != nil:
			d = ix.stateful.PreparedDistance(pq, ix.state.States[i])
			stats.Exact++
		default:
			d = ix.m.Distance(q, ix.refs[i])
			stats.Exact++
		}
		h.Offer(index.Neighbor{Index: i, Dist: measure.Sanitize(d)}, k)
	}
	return h.Sorted()
}
