package index

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/measure"
	"repro/internal/par"
)

// VPTree is a vantage-point tree: an exact metric index over any distance
// measure satisfying the triangle inequality. Among the paper's elastic
// measures MSM, ERP, and TWE are metrics, so the new state-of-the-art
// measures are indexable this way even though they lack DFT-style lower
// bounds. It also indexes the Euclidean representations of the ANN layer
// (internal/ann), where k-NN over short embedding vectors selects the
// candidates an exact measure re-ranks.
//
// Non-finite distances are handled conservatively: a NaN vantage distance
// (or radius) carries no triangle-inequality information, so both subtrees
// are searched and the candidate ranks last (+Inf) — the search can lose
// pruning power on poisoned data, never the true neighbor.
type VPTree struct {
	m      measure.Measure
	series [][]float64
	root   *vpNode
}

type vpNode struct {
	idx     int     // vantage point (index into series)
	radius  float64 // median distance of the inside subtree
	inside  *vpNode // points with d(vp, x) <= radius
	outside *vpNode
}

// Neighbor is one k-NN result: a reference index and its sanitized
// distance (NaN mapped to +Inf so undefined pairs rank last).
type Neighbor struct {
	Index int
	Dist  float64
}

// Build parallelism thresholds: nodes with at least parDistMin siblings
// fan the vantage-distance fill across workers, and subtrees with at least
// parSubtreeMin members build concurrently while the goroutine budget
// lasts. Tree structure is independent of both (vantage selection is
// seeded per node, not drawn from a shared stream).
const (
	parDistMin    = 256
	parSubtreeMin = 64
)

// splitmix64 is the per-node seed mixer: each node derives its vantage
// choice and its children's seeds from its own 64-bit state, so the tree
// is identical no matter how the build is scheduled across goroutines.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewVPTreeCtx builds the tree over the reference series with the given
// metric. Construction performs O(n log n) distance computations in
// parallel. The seed drives vantage-point selection. Empty refs build an
// empty tree whose searches return no neighbors — matching the other
// index constructors' degenerate-input behavior. The context is observed
// at every node and inside the parallel distance fills, so a cancelled
// build returns ctx.Err() promptly with the tree unusable.
func NewVPTreeCtx(ctx context.Context, refs [][]float64, m measure.Measure, seed int64) (*VPTree, error) {
	t := &VPTree{m: m, series: refs}
	if len(refs) == 0 {
		return t, nil
	}
	idxs := make([]int, len(refs))
	for i := range idxs {
		idxs[i] = i
	}
	budget := par.Workers(len(refs))
	root, err := t.build(ctx, idxs, splitmix64(uint64(seed)), budget)
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// build constructs the subtree over idxs. seed is this node's private
// vantage-selection state; budget bounds the concurrent subtree builds
// below this node. The resulting structure depends only on (idxs, seed).
func (t *VPTree) build(ctx context.Context, idxs []int, seed uint64, budget int) (*vpNode, error) {
	if len(idxs) == 0 {
		return nil, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	// Pick the vantage point from the node seed and move it to the front.
	p := int(splitmix64(seed) % uint64(len(idxs)))
	idxs[0], idxs[p] = idxs[p], idxs[0]
	node := &vpNode{idx: idxs[0]}
	rest := idxs[1:]
	if len(rest) == 0 {
		return node, nil
	}
	type distIdx struct {
		i int
		d float64
	}
	ds := make([]distIdx, len(rest))
	vp := t.series[node.idx]
	if len(rest) >= parDistMin && budget > 1 {
		if err := par.ForCtx(ctx, len(rest), budget, func(k int) {
			ds[k] = distIdx{i: rest[k], d: t.m.Distance(vp, t.series[rest[k]])}
		}); err != nil {
			return nil, err
		}
	} else {
		for k, i := range rest {
			ds[k] = distIdx{i: i, d: t.m.Distance(vp, t.series[i])}
		}
	}
	// NaN distances sort last and partition outside: they carry no metric
	// information, and the search never prunes across a non-finite bound.
	sort.Slice(ds, func(a, b int) bool {
		da, db := ds[a].d, ds[b].d
		if math.IsNaN(db) {
			return !math.IsNaN(da)
		}
		if math.IsNaN(da) {
			return false
		}
		return da < db
	})
	mid := len(ds) / 2
	node.radius = ds[mid].d
	inside := make([]int, 0, mid+1)
	outside := make([]int, 0, len(ds)-mid)
	for _, di := range ds {
		if di.d <= node.radius { // NaN fails and lands outside
			inside = append(inside, di.i)
		} else {
			outside = append(outside, di.i)
		}
	}
	inSeed := splitmix64(seed ^ 0x9e3779b97f4a7c15)
	outSeed := splitmix64(seed ^ 0xc2b2ae3d27d4eb4f)
	if budget > 1 && len(inside) >= parSubtreeMin && len(outside) >= parSubtreeMin {
		var (
			wg  sync.WaitGroup
			inN *vpNode
			inE error
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			inN, inE = t.build(ctx, inside, inSeed, budget/2)
		}()
		outN, outE := t.build(ctx, outside, outSeed, budget-budget/2)
		wg.Wait()
		if inE != nil {
			return nil, inE
		}
		if outE != nil {
			return nil, outE
		}
		node.inside, node.outside = inN, outN
		return node, nil
	}
	var err error
	if node.inside, err = t.build(ctx, inside, inSeed, budget); err != nil {
		return nil, err
	}
	if node.outside, err = t.build(ctx, outside, outSeed, budget); err != nil {
		return nil, err
	}
	return node, nil
}

// KNNHeap is a bounded max-heap over (Dist, Index) for k-NN searches: the
// root is the worst retained neighbor, evicted when a strictly better
// candidate arrives. Ties on Dist rank the higher index as worse, so the
// retained set — and therefore the search result — is independent of the
// order candidates are offered in. Start from make(KNNHeap, 0, k), Offer
// each candidate under the same k, and finish with Sorted.
type KNNHeap []Neighbor

func (h KNNHeap) worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Index > b.Index
}

func (h KNNHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.worse(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h KNNHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && h.worse(h[l], h[worst]) {
			worst = l
		}
		if r < n && h.worse(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Offer inserts nb, evicting the root when the heap already holds k
// neighbors and nb improves on the worst of them.
func (h *KNNHeap) Offer(nb Neighbor, k int) {
	if len(*h) < k {
		*h = append(*h, nb)
		h.up(len(*h) - 1)
		return
	}
	if h.worse((*h)[0], nb) {
		(*h)[0] = nb
		h.down(0)
	}
}

// Cutoff is the pruning radius: the worst retained distance once the heap
// holds k neighbors, +Inf before that.
func (h KNNHeap) Cutoff(k int) float64 {
	if len(h) == k {
		return h[0].Dist
	}
	return math.Inf(1)
}

// Sorted orders the retained neighbors ascending by (Dist, Index), in
// place, and returns them; the heap is spent afterwards.
func (h KNNHeap) Sorted() []Neighbor {
	out := []Neighbor(h)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist != out[b].Dist {
			return out[a].Dist < out[b].Dist
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// KNN returns the k nearest references to q under the tree's metric,
// sorted ascending by (distance, index), and the number of exact distance
// computations performed. Fewer than k neighbors are returned only when
// the tree holds fewer than k series. Exactness relies on the measure
// being a metric; pruning uses the triangle inequality and is disabled
// across any non-finite vantage distance or radius, so NaN-poisoned series
// degrade speed, not correctness (their pairs rank last, as +Inf).
func (t *VPTree) KNN(q []float64, k int) ([]Neighbor, int) {
	if k <= 0 || t.root == nil {
		return nil, 0
	}
	if k > len(t.series) {
		k = len(t.series)
	}
	h := make(KNNHeap, 0, k)
	computed := 0
	var search func(n *vpNode)
	search = func(n *vpNode) {
		if n == nil {
			return
		}
		d := t.m.Distance(q, t.series[n.idx])
		computed++
		h.Offer(Neighbor{Index: n.idx, Dist: measure.Sanitize(d)}, k)
		if math.IsNaN(d) || math.IsInf(d, 0) || math.IsNaN(n.radius) || math.IsInf(n.radius, 0) {
			// A non-finite vantage distance or radius proves nothing about
			// either side; descending both keeps the search exact.
			search(n.inside)
			search(n.outside)
			return
		}
		// Triangle-inequality pruning: the inside ball can contain a
		// retained-set improvement only if d - cutoff <= radius; the outside
		// region only if d + cutoff >= radius. The cutoff is re-read after
		// the first descent, which may have tightened it.
		if d < n.radius {
			search(n.inside)
			if d+h.Cutoff(k) >= n.radius {
				search(n.outside)
			}
		} else {
			search(n.outside)
			if d-h.Cutoff(k) <= n.radius {
				search(n.inside)
			}
		}
	}
	search(t.root)
	return h.Sorted(), computed
}

// NN returns the nearest reference to q under the tree's metric, its
// distance, and the number of exact distance computations performed, or
// (-1, +Inf, 0) on an empty tree. Ties resolve to the lowest reference
// index. Exactness relies on the measure being a metric; for non-metric
// measures the result may miss the true neighbor (use a linear scan
// instead).
func (t *VPTree) NN(q []float64) (best int, dist float64, computed int) {
	nbs, computed := t.KNN(q, 1)
	if len(nbs) == 0 {
		return -1, math.Inf(1), computed
	}
	return nbs[0].Index, nbs[0].Dist, computed
}

// Size returns the number of indexed series.
func (t *VPTree) Size() int { return len(t.series) }

// Validate checks the tree's structural invariant (every inside descendant
// within the radius, every outside descendant beyond) and returns the
// first violation; used by tests. Non-finite distances are exempt: they
// partition outside by construction and prove nothing either way.
func (t *VPTree) Validate() error {
	var walk func(n *vpNode) error
	walk = func(n *vpNode) error {
		if n == nil {
			return nil
		}
		vp := t.series[n.idx]
		var check func(c *vpNode, inside bool) error
		check = func(c *vpNode, inside bool) error {
			if c == nil {
				return nil
			}
			d := t.m.Distance(vp, t.series[c.idx])
			if inside && d > n.radius {
				return fmt.Errorf("index: inside point %d at %g > radius %g", c.idx, d, n.radius)
			}
			if !inside && d <= n.radius {
				return fmt.Errorf("index: outside point %d at %g <= radius %g", c.idx, d, n.radius)
			}
			if err := check(c.inside, inside); err != nil {
				return err
			}
			return check(c.outside, inside)
		}
		if err := check(n.inside, true); err != nil {
			return err
		}
		if err := check(n.outside, false); err != nil {
			return err
		}
		if err := walk(n.inside); err != nil {
			return err
		}
		return walk(n.outside)
	}
	return walk(t.root)
}
