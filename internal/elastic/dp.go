package elastic

import (
	"math"
	"runtime"
	"sync"
)

// This file holds the one driver every elastic dynamic program in the
// repository runs through. A measure describes its DP once, as a
// Recurrence (the boundary row, column and corner, plus a row function
// holding its cell update) over a DP shape; the driver owns everything
// else: the pooled rows, band clipping and fringe cells, the row-minimum
// abandon, and the choice between the serial two-row path and the blocked
// wavefront (wavefront.go), which calls the same row function per block.
// Both paths perform the same per-cell operations in the same order, so
// they agree bitwise.

// Recurrence is the measure-specific half of an elastic DP over cells
// (i, j), i in [1, R], j in [1, C].
type Recurrence interface {
	// Boundary fills top[j-1] = DP(0, j) for j in [1, C] and
	// left[i-1] = DP(i, 0) for i in [1, R], and returns DP(0, 0).
	Boundary(top, left []float64) (corner float64)
	// Row fills cur[k] = DP(i, j0-1+k) for k in [1, j1-j0+1], given
	// prev[k] = DP(i-1, j0-1+k) for k in [0, j1-j0+1] and cur[0] =
	// DP(i, j0-1). It returns a lower bound on the final value that the row
	// certifies: the row minimum when cell costs are non-negative and every
	// path crosses every row (DTW), or -Inf when the recurrence never
	// abandons.
	Row(i, j0, j1 int, prev, cur []float64) (bound float64)
}

// DP is one elastic dynamic program: an R-by-C matrix filled by Rows. W > 0
// restricts it to a Sakoe-Chiba band of absolute half-width W, whose outside
// cells hold OOB; W <= 0 leaves it unbanded (no measure here uses a zero
// band: WindowSize is at least 1).
type DP[K Recurrence] struct {
	R, C, W int
	OOB     float64
	Rows    K
}

// band returns row i's in-band columns clipped to [j0, j1]; empty when
// lo > hi.
func (p DP[K]) band(i, j0, j1 int) (lo, hi int) {
	if p.W <= 0 {
		return j0, j1
	}
	return max(j0, i-p.W), min(j1, i+p.W)
}

// rowPool holds the driver's scratch slabs: two DP rows plus the boundary
// column on the serial path, the block boundaries plus every worker's rows
// on the wavefront. Contents are unspecified on Get; both paths write every
// cell they read.
var rowPool = sync.Pool{New: func() any { return new([]float64) }}

// borrow returns a pooled slab of n floats; hand buf back to rowPool when
// done.
func borrow(n int) (buf *[]float64, slab []float64) {
	buf = rowPool.Get().(*[]float64)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return buf, (*buf)[:n]
}

// Serial runs the DP on the two-row path and returns DP(R, C). It abandons
// as soon as a row's bound reaches cutoff and returns that bound, which
// keeps the measure.EarlyAbandoning contract (cutoff <= v <= DP(R, C));
// with cutoff = +Inf only a row whose bound is +Inf stops it early, and a
// NaN cutoff never does. A single DP is never cancelled: callers poll their
// context between distances, at the dispatch chunk (internal/par).
func (p DP[K]) Serial(cutoff float64) float64 {
	n := p.C + 1
	buf, slab := borrow(2*n + p.R)
	defer rowPool.Put(buf)
	prev, cur, left := slab[:n], slab[n:2*n], slab[2*n:]
	prev[0] = p.Rows.Boundary(prev[1:], left)
	for i := 1; i <= p.R; i++ {
		lo, hi := p.band(i, 1, p.C)
		// The band advances by at most one cell per row, so only its fringe
		// needs writing: cur[lo-1] feeds this row's first deletion and
		// cur[hi+1] the next row's insertion. Every other cell the next
		// row reads was written in band by this one.
		if lo == 1 {
			cur[0] = left[i-1]
		} else {
			cur[lo-1] = p.OOB
		}
		if hi < p.C {
			cur[hi+1] = p.OOB
		}
		if b := p.Rows.Row(i, lo, hi, prev[lo-1:], cur[lo-1:]); b >= cutoff {
			return b
		}
		prev, cur = cur, prev
	}
	return prev[p.C]
}

// wavefrontMinSpan is the band width in cells (the full width when
// unbanded) from which Distance takes the blocked route on a multi-core
// machine: more than three default 256-cell blocks, so every interior
// anti-diagonal holds several blocks to share out. Measured with
// BenchmarkHotloops on two cores (DESIGN.md §13): unbanded MSM at n=1024
// and DTW with a 10% band at n=4096 (819 cells) win blocked; the 10% band
// wins serial at n=1024 (205 cells) and ties at n=2048 (409 cells).
const wavefrontMinSpan = 3*256 + 1

// distance is the Distance route: blocked when the band spans
// wavefrontMinSpan cells and there is more than one core, serial otherwise.
func (p DP[K]) distance() float64 {
	span := p.C
	if p.W > 0 {
		span = min(span, 2*p.W+1)
	}
	if span >= wavefrontMinSpan && runtime.GOMAXPROCS(0) > 1 {
		return p.Wavefront()
	}
	return p.Serial(math.Inf(1))
}

// InfBoundary is the boundary of the DPs that start from DP(0, 0) = 0
// alone (DTW, WDTW, TWE, soft-DTW): every other boundary cell is +Inf.
// Recurrences embed it to supply Boundary.
type InfBoundary struct{}

// Boundary implements Recurrence.
func (InfBoundary) Boundary(top, left []float64) float64 {
	fill(top, math.Inf(1))
	fill(left, math.Inf(1))
	return 0
}

// fill sets every element of dst to v.
func fill(dst []float64, v float64) {
	for t := range dst {
		dst[t] = v
	}
}
