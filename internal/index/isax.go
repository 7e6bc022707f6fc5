package index

import (
	"container/heap"
	"fmt"
	"math"
)

// This file implements an iSAX index (Shieh & Keogh, "iSAX: indexing and
// mining terabyte sized time series" — the paper whose ED-convergence
// observation misconception M2 grew from): a tree over variable-cardinality
// SAX words supporting approximate search (descend to the matching leaf)
// and exact 1-NN search (best-first traversal with the iSAX MINDIST lower
// bound). Series are indexed by their z-normalized form.

// isaxBits is the maximum per-segment cardinality exponent: symbols live
// in [0, 2^isaxBits).
const isaxBits = 8

// ISAX is the index. Segments sets the SAX word length; LeafCapacity the
// maximum entries per leaf before splitting.
type ISAX struct {
	segments int
	capacity int
	m        int       // series length
	breaks   []float64 // 2^isaxBits - 1 breakpoints at maximum cardinality
	series   [][]float64
	words    [][]int // full-cardinality symbols per indexed series
	root     *isaxNode
	size     int
}

// isaxNode is one tree node: an internal node splits one segment by its
// next symbol bit; a leaf stores entry indexes.
type isaxNode struct {
	// Per-segment prefix: sym is the high-order bits, bits how many are
	// fixed (0 = segment unconstrained).
	sym  []int
	bits []int

	entries  []int // leaf payload (indexes into the index's series)
	split    int   // internal: which segment the children extend
	children [2]*isaxNode
	leaf     bool
}

// NewISAX builds an empty index for series of length m.
func NewISAX(m, segments, leafCapacity int) *ISAX {
	if segments < 1 || segments > m {
		panic(fmt.Sprintf("index: iSAX segments %d out of range for length %d", segments, m))
	}
	if leafCapacity < 1 {
		panic("index: iSAX leaf capacity < 1")
	}
	card := 1 << isaxBits
	breaks := make([]float64, card-1)
	for i := range breaks {
		breaks[i] = normQuantile(float64(i+1) / float64(card))
	}
	return &ISAX{
		segments: segments,
		capacity: leafCapacity,
		m:        m,
		breaks:   breaks,
		root: &isaxNode{
			sym:  make([]int, segments),
			bits: make([]int, segments),
			leaf: true,
		},
	}
}

// Size returns the number of indexed series.
func (ix *ISAX) Size() int { return ix.size }

// word computes the full-cardinality SAX word of x.
func (ix *ISAX) word(x []float64) []int {
	paa := PAA(x, ix.segments)
	w := make([]int, len(paa))
	for i, v := range paa {
		w[i] = searchBreaks(ix.breaks, v)
	}
	return w
}

// searchBreaks returns the number of breakpoints <= v (the symbol).
func searchBreaks(breaks []float64, v float64) int {
	lo, hi := 0, len(breaks)
	for lo < hi {
		mid := (lo + hi) / 2
		if breaks[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds a series (length must match the index).
func (ix *ISAX) Insert(x []float64) {
	if len(x) != ix.m {
		panic(fmt.Sprintf("index: iSAX series length %d, want %d", len(x), ix.m))
	}
	id := len(ix.series)
	ix.series = append(ix.series, x)
	ix.words = append(ix.words, ix.word(x))
	ix.insert(ix.root, id)
	ix.size++
}

func (ix *ISAX) insert(n *isaxNode, id int) {
	for !n.leaf {
		bit := ix.childBit(n, ix.words[id])
		n = n.children[bit]
	}
	n.entries = append(n.entries, id)
	if len(n.entries) > ix.capacity {
		ix.splitLeaf(n)
	}
}

// childBit extracts the routing bit for a full-cardinality word at an
// internal node: the next (bits[split]th) most significant bit of the
// split segment's symbol.
func (ix *ISAX) childBit(n *isaxNode, word []int) int {
	shift := isaxBits - n.bits[n.split] - 1
	return (word[n.split] >> shift) & 1
}

// splitLeaf converts a full leaf into an internal node with two children,
// extending the prefix of the segment with the fewest fixed bits
// (round-robin refinement, the classic iSAX policy). A leaf whose every
// segment is fully refined stays an (oversized) leaf.
func (ix *ISAX) splitLeaf(n *isaxNode) {
	split := -1
	for s := 0; s < ix.segments; s++ {
		if n.bits[s] < isaxBits && (split == -1 || n.bits[s] < n.bits[split]) {
			split = s
		}
	}
	if split == -1 {
		return // cannot refine further
	}
	n.split = split
	for bit := 0; bit < 2; bit++ {
		child := &isaxNode{
			sym:  append([]int(nil), n.sym...),
			bits: append([]int(nil), n.bits...),
			leaf: true,
		}
		child.sym[split] = n.sym[split]<<1 | bit
		child.bits[split] = n.bits[split] + 1
		n.children[bit] = child
	}
	entries := n.entries
	n.entries = nil
	n.leaf = false
	for _, id := range entries {
		bit := ix.childBit(n, ix.words[id])
		n.children[bit].entries = append(n.children[bit].entries, id)
	}
	// A degenerate split (all entries on one side) may still exceed the
	// capacity; recurse so the child refines a different segment next.
	for bit := 0; bit < 2; bit++ {
		if len(n.children[bit].entries) > ix.capacity {
			ix.splitLeaf(n.children[bit])
		}
	}
}

// minDistNode returns the iSAX MINDIST lower bound between a query's PAA
// coefficients and every series whose word lies under the node's prefix:
// per segment, the gap from the query's coefficient to the prefix's
// breakpoint region (see segmentBound).
func (ix *ISAX) minDistNode(paa []float64, n *isaxNode) float64 {
	return segmentBound(ix.m, ix.segments, func(s int) float64 {
		if n.bits[s] == 0 {
			return 0 // unconstrained segment contributes nothing
		}
		width := isaxBits - n.bits[s]
		loSym := n.sym[s] << width
		hiSym := ((n.sym[s] + 1) << width) - 1
		v := paa[s]
		if loSym > 0 && v < ix.breaks[loSym-1] {
			return ix.breaks[loSym-1] - v
		}
		if hiSym < len(ix.breaks) && v > ix.breaks[hiSym] {
			return v - ix.breaks[hiSym]
		}
		return 0
	})
}

// ApproxNN descends to the leaf matching the query's word and returns the
// best entry inside it (index, ED distance). It examines at most one
// leaf's entries — the constant-time approximate search of iSAX. Returns
// -1 on an empty index.
func (ix *ISAX) ApproxNN(q []float64) (best int, dist float64) {
	if ix.size == 0 {
		return -1, math.Inf(1)
	}
	word := ix.word(q)
	n := ix.root
	for !n.leaf {
		n = n.children[ix.childBit(n, word)]
	}
	return ix.scanLeaf(q, n, -1, math.Inf(1))
}

// scanLeaf linearly verifies a leaf's entries with early-abandoning ED.
func (ix *ISAX) scanLeaf(q []float64, n *isaxNode, best int, bestDist float64) (int, float64) {
	bestSq := bestDist * bestDist
	for _, id := range n.entries {
		sq := earlyAbandonSqED(q, ix.series[id], bestSq)
		if sq < bestSq {
			bestSq = sq
			best = id
		}
	}
	return best, math.Sqrt(bestSq)
}

// nodeHeap is a min-heap of (node, lower bound) for best-first search.
type nodeItem struct {
	n  *isaxNode
	lb float64
}
type nodeHeap []nodeItem

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].lb < h[j].lb }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// NN performs exact 1-NN search: best-first traversal ordered by the node
// MINDIST lower bound, seeded with the approximate answer, pruning every
// subtree whose bound cannot beat the best verified distance. It returns
// the nearest index, its ED, and the number of leaf entries verified.
func (ix *ISAX) NN(q []float64) (best int, dist float64, verified int) {
	if ix.size == 0 {
		return -1, math.Inf(1), 0
	}
	if len(q) != ix.m {
		panic(fmt.Sprintf("index: iSAX query length %d, want %d", len(q), ix.m))
	}
	// Seed with the approximate search for a tight initial radius.
	best, dist = ix.ApproxNN(q)
	paa := PAA(q, ix.segments)

	h := &nodeHeap{{ix.root, ix.minDistNode(paa, ix.root)}}
	for h.Len() > 0 {
		item := heap.Pop(h).(nodeItem)
		if item.lb >= dist {
			break // every remaining node is at least this far
		}
		if item.n.leaf {
			verified += len(item.n.entries)
			best, dist = ix.scanLeaf(q, item.n, best, dist)
			continue
		}
		for bit := 0; bit < 2; bit++ {
			c := item.n.children[bit]
			if lb := ix.minDistNode(paa, c); lb < dist {
				heap.Push(h, nodeItem{c, lb})
			}
		}
	}
	return best, dist, verified
}

// Validate checks the structural invariant: every leaf entry's word lies
// under the leaf's prefix. Used by tests.
func (ix *ISAX) Validate() error {
	var walk func(n *isaxNode) error
	walk = func(n *isaxNode) error {
		if n.leaf {
			for _, id := range n.entries {
				for s := 0; s < ix.segments; s++ {
					if n.bits[s] == 0 {
						continue
					}
					prefix := ix.words[id][s] >> (isaxBits - n.bits[s])
					if prefix != n.sym[s] {
						return fmt.Errorf("index: entry %d segment %d prefix %d != node %d",
							id, s, prefix, n.sym[s])
					}
				}
			}
			return nil
		}
		for bit := 0; bit < 2; bit++ {
			if err := walk(n.children[bit]); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(ix.root)
}
