// Package index implements similarity-search indexing for time series: the
// PAA (piecewise aggregate approximation) lower bound with a GEMINI-style
// filter-and-refine scan for Euclidean search, and a vantage-point tree
// that exactly indexes any metric distance measure — including MSM and
// ERP, the metrics among the paper's elastic measures. M2 of the paper
// attributes ED's dominance partly to its indexing support; this package
// demonstrates that the measures the paper promotes are indexable too.
package index

import (
	"fmt"
	"math"
	"sort"
)

// PAA computes the piecewise aggregate approximation of x with the given
// number of segments: each coefficient is the mean of its (possibly
// fractional) segment. It panics for segments < 1 or an empty series.
func PAA(x []float64, segments int) []float64 {
	m := len(x)
	if segments < 1 {
		panic(fmt.Sprintf("index: PAA segments %d < 1", segments))
	}
	if m == 0 {
		panic("index: PAA of empty series")
	}
	if segments > m {
		segments = m
	}
	out := make([]float64, segments)
	if m%segments == 0 {
		// Fast path: equal integer segments.
		w := m / segments
		for s := 0; s < segments; s++ {
			var sum float64
			for i := s * w; i < (s+1)*w; i++ {
				sum += x[i]
			}
			out[s] = sum / float64(w)
		}
		return out
	}
	// General path: distribute points proportionally (each point i
	// contributes to segment i*segments/m).
	counts := make([]float64, segments)
	for i, v := range x {
		s := i * segments / m
		out[s] += v
		counts[s]++
	}
	for s := range out {
		out[s] /= counts[s]
	}
	return out
}

// LBPAA returns the PAA lower bound of the Euclidean distance between two
// series given their PAA coefficients and the original length m. Each
// coefficient difference is weighted by its segment's exact point count:
// Cauchy-Schwarz gives sum_{i in seg}(x_i-y_i)^2 >= n_seg*(a_seg-b_seg)^2
// per segment, so sqrt(sum n_seg*(a_seg-b_seg)^2) <= ED. When m divides
// evenly this is the classic sqrt(m/s * sum (a_i-b_i)^2); with ragged
// segments the uniform m/s weight would overestimate the short segments'
// contribution and break the bound. It panics on length mismatch.
func LBPAA(a, b []float64, m int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("index: PAA length mismatch %d vs %d", len(a), len(b)))
	}
	s := len(a)
	if m%s == 0 {
		var sum float64
		for i := range a {
			d := a[i] - b[i]
			sum += d * d
		}
		return math.Sqrt(float64(m) / float64(s) * sum)
	}
	// Segment seg holds the points i with i*s/m == seg, i.e. the integers
	// in [seg*m/s, (seg+1)*m/s) — mirroring PAA's general path exactly.
	var sum float64
	for seg := range a {
		d := a[seg] - b[seg]
		lo := (seg*m + s - 1) / s
		hi := ((seg+1)*m + s - 1) / s
		sum += float64(hi-lo) * d * d
	}
	return math.Sqrt(sum)
}

// EDIndex is a GEMINI-style filter-and-refine index for Euclidean
// 1-NN search: candidates are ordered by their PAA lower bound and
// verified with the exact (early-abandoning) distance until the next lower
// bound exceeds the best exact distance found.
type EDIndex struct {
	series   [][]float64
	paa      [][]float64
	segments int
	m        int
}

// NewEDIndex builds the index over the reference series (all of equal
// length) with the given PAA resolution. Empty refs build an empty index
// whose searches return (-1, +Inf) — matching the other index
// constructors' degenerate-input behavior.
func NewEDIndex(refs [][]float64, segments int) *EDIndex {
	if len(refs) == 0 {
		return &EDIndex{segments: segments}
	}
	m := len(refs[0])
	idx := &EDIndex{series: refs, segments: segments, m: m}
	idx.paa = make([][]float64, len(refs))
	for i, r := range refs {
		if len(r) != m {
			panic(fmt.Sprintf("index: series %d has length %d, want %d", i, len(r), m))
		}
		idx.paa[i] = PAA(r, segments)
	}
	return idx
}

// Stats reports the work done by one search.
type Stats struct {
	Exact  int // exact distance computations performed
	Pruned int // candidates rejected by the lower bound alone
}

// NN returns the index and Euclidean distance of the nearest reference to
// the query, plus search statistics. Results are exact: the lower-bound
// ordering plus the stopping rule never discards the true neighbor.
func (ix *EDIndex) NN(q []float64) (best int, dist float64, stats Stats) {
	if len(ix.series) == 0 {
		return -1, math.Inf(1), stats
	}
	if len(q) != ix.m {
		panic(fmt.Sprintf("index: query length %d, want %d", len(q), ix.m))
	}
	qp := PAA(q, ix.segments)
	type cand struct {
		i  int
		lb float64
	}
	cands := make([]cand, len(ix.series))
	for i := range ix.series {
		cands[i] = cand{i: i, lb: LBPAA(qp, ix.paa[i], ix.m)}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].lb < cands[b].lb })

	best = -1
	bestSq := math.Inf(1)
	for _, c := range cands {
		if best >= 0 && c.lb*c.lb >= bestSq {
			stats.Pruned = len(ix.series) - stats.Exact
			break
		}
		sq := earlyAbandonSqED(q, ix.series[c.i], bestSq)
		stats.Exact++
		if sq < bestSq {
			bestSq = sq
			best = c.i
		}
	}
	return best, math.Sqrt(bestSq), stats
}

// earlyAbandonSqED computes the squared ED but abandons as soon as the
// partial sum exceeds the cutoff, returning +Inf in that case.
func earlyAbandonSqED(x, y []float64, cutoff float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
		if s >= cutoff {
			return math.Inf(1)
		}
	}
	return s
}
