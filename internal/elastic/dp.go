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
// else: the pooled rows, band clipping and fringe cells, the cell-pruning
// abandon rule, and the choice between the serial two-row path and the
// blocked wavefront (wavefront.go), which calls the same row function per
// block. Both paths perform the same per-cell operations in the same order,
// so they agree bitwise.

// Recurrence is the measure-specific half of an elastic DP over cells
// (i, j), i in [1, R], j in [1, C].
type Recurrence interface {
	// Boundary fills top[j-1] = DP(0, j) for j in [1, C] and
	// left[i-1] = DP(i, 0) for i in [1, R], and returns DP(0, 0).
	Boundary(top, left []float64) (corner float64)
	// Row fills cur[k] = DP(i, j0-1+k) for k in [1, j1-j0+1], given
	// prev[k] = DP(i-1, j0-1+k) for k in [0, j1-j0+1] and cur[0] =
	// DP(i, j0-1).
	Row(i, j0, j1 int, prev, cur []float64)
}

// DP is one elastic dynamic program: an R-by-C matrix filled by Rows. W > 0
// restricts it to a Sakoe-Chiba band of absolute half-width W, whose outside
// cells hold OOB; W <= 0 leaves it unbanded (no measure here uses a zero
// band: WindowSize is at least 1).
//
// Prune declares a min-plus recurrence: every cell is the minimum, over the
// predecessors it reads, of that predecessor plus a non-negative cost, and
// the boundary accumulates non-negative costs the same way, so no cell is
// below the predecessor its minimum came from. Serial then prunes cells at
// or above its cutoff, and OOB must be +Inf, the value a pruned cell reads
// as. Measures set it only when their parameters keep every cost
// non-negative.
type DP[K Recurrence] struct {
	R, C, W int
	OOB     float64
	Prune   bool
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

// Serial runs the DP on the two-row path and returns DP(R, C). With Prune
// set it skips the cells that cannot lead below cutoff, the EAPruned rule
// of Herrmann & Webb ("Early abandoning and pruning for elastic
// distances", DMKD 2021). A cell is dead when its value is >= cutoff, so a
// NaN cell stays live. Row i is computed from the first live column of row
// i-1 up to the first dead cell past that row's last live column; every
// computed cell is written, dead or alive, and the cells just outside the
// span hold OOB, so no row reads a stale value. Live cells are exact: the
// minimum of a live cell comes from a live predecessor, and a dead
// predecessor plus a non-negative cost stays >= cutoff whatever value it
// holds.
//
// Serial returns cutoff when a row has no live cell or DP(R, C) is dead.
// Every path crosses every row and never descends, so DP(R, C) >= cutoff
// there, which keeps the measure.EarlyAbandoning contract (cutoff <= v <=
// DP(R, C)). With cutoff = +Inf only +Inf cells are dead, so on finite
// input Serial returns the full DP's value; a NaN cutoff, or a DP without
// Prune, computes every in-band cell. A single DP is never cancelled:
// callers poll their context between distances, at the dispatch chunk
// (internal/par).
func (p DP[K]) Serial(cutoff float64) float64 {
	if !p.Prune {
		cutoff = math.NaN()
	}
	n := p.C + 1
	buf, slab := borrow(2*n + p.R)
	defer rowPool.Put(buf)
	prev, cur, left := slab[:n], slab[n:2*n], slab[2*n:]
	prev[0] = p.Rows.Boundary(prev[1:], left)
	// [first, last] is the previous row's live span over columns 0..C,
	// column 0 being the boundary column.
	first, last, ok := liveSpan(prev, 0, p.C, cutoff)
	for i := 1; ok && i <= p.R; i++ {
		lo, hi := p.band(i, 1, p.C)
		s, e := max(lo, first, 1), min(hi, last+1)
		// Cell s reads its deletion from cur[s-1]: the boundary column, or
		// OOB left of the band or of the live span.
		if s == 1 {
			cur[0] = left[i-1]
		} else {
			cur[s-1] = p.OOB
		}
		if s <= e {
			p.Rows.Row(i, s, e, prev[s-1:], cur[s-1:])
		} else {
			e = s - 1
		}
		// Past the previous row's live span only the deletion can carry a
		// live value: extend cell by cell until one is dead, reading OOB
		// from the previous row.
		for e < hi && !(cur[e] >= cutoff) {
			e++
			prev[e] = p.OOB
			p.Rows.Row(i, e, e, prev[e-1:], cur[e-1:])
		}
		// The next row reads one column past this row's span.
		if e < p.C {
			cur[e+1] = p.OOB
		}
		first, last, ok = liveSpan(cur, s-1, e, cutoff)
		prev, cur = cur, prev
	}
	if !ok || last < p.C {
		return cutoff
	}
	return prev[p.C]
}

// liveSpan returns the first and last live columns of row within [a, b],
// and false when every cell there is dead (>= cutoff; NaN is live).
func liveSpan(row []float64, a, b int, cutoff float64) (first, last int, ok bool) {
	first = a
	for first <= b && row[first] >= cutoff {
		first++
	}
	if first > b {
		return 0, 0, false
	}
	last = b
	for row[last] >= cutoff {
		last--
	}
	return first, last, true
}

// wavefrontMinSpan is the band width in cells (the full width when
// unbanded) from which Distance takes the blocked route on a multi-core
// machine: more than two default 256-cell blocks. Measured with
// BenchmarkHotloops on two cores (DESIGN.md §13): unbanded MSM ties at 447
// cells and wins blocked from 511 up, by a third at 767 and 1023 cells;
// DTW with a 10% band wins serial at 205 and 409 cells (n=1024, 2048),
// ties at 513 (n=2560) and wins blocked at 819 (n=4096).
const wavefrontMinSpan = 2*256 + 1

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
