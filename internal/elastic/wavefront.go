package elastic

import (
	"math"

	"repro/internal/par"
)

// This file implements the diagonal-blocked (wavefront) path of the DP
// driver. The R-by-C matrix is cut into square blocks; every block depends
// only on its left, top, and top-left neighbors, so the blocks of one
// anti-diagonal are independent once the previous diagonal is done and can
// be scheduled across par workers (par.Wavefront). Inside a block the
// recurrence's own row function runs over the same cells, from the same
// operands, as on the serial path, so the result is bitwise-identical
// regardless of block size or worker count: floating-point addition is not
// associative, but the blocking never reassociates anything — it only
// changes *when* each cell is computed, never *from what*.
//
// Shared state between blocks lives in three flat buffers carved from a
// pooled slab:
//
//	top[j-1]    = DP(i_bottom, j): the bottom row of the block above, or the
//	              DP boundary row before any block of that column ran;
//	left[i-1]   = DP(i, j_right): the right column of the block to the left,
//	              or the DP boundary column;
//	corner[bi]  = DP(i0-1, j0-1) for the next block of block-row bi.
//
// A block reads its top row, left column, and corner, runs the two-row DP
// over its cells using per-worker row scratch, and writes its bottom row and
// right column back in place. The corner for its right neighbor is the last
// element of its own top input, captured before the bottom row overwrites
// it. Within one diagonal, blocks of distinct rows and columns touch
// disjoint segments, so no synchronization beyond the diagonal barrier is
// needed (verified under -race).

// wfBlock is the block edge length. 256 cells keep the two scratch rows
// (2 KiB each) plus the x/y slices of the block comfortably inside L1 while
// leaving enough blocks per diagonal to balance across workers. A package
// variable so exactness tests can shrink it and exercise multi-block
// schedules on short series.
var wfBlock = 256

// SetWavefrontBlock overrides the wavefront block edge and returns a
// restore func. It exists so external differential harnesses (the oracle)
// can force multi-block schedules onto short fuzz inputs; it is not safe
// to call concurrently with wavefront evaluation.
func SetWavefrontBlock(n int) (restore func()) {
	old := wfBlock
	wfBlock = n
	return func() { wfBlock = old }
}

// Wavefront runs the DP by blocked anti-diagonal wavefront and returns
// DP(R, C), bitwise the value of Serial with an infinite cutoff on finite
// input. It never prunes: on non-finite input Serial skips the cells whose
// predecessors are all +Inf, where a NaN cost can make the full DP NaN, so
// there the two agree only after measure.Sanitize. Out-of-band blocks are
// skipped and their boundaries filled with OOB.
func (p DP[K]) Wavefront() float64 {
	R, C := p.R, p.C
	if R <= 0 || C <= 0 {
		return p.Serial(math.Inf(1))
	}
	bs := wfBlock
	nbi := (R + bs - 1) / bs
	nbj := (C + bs - 1) / bs
	workers := par.Workers(min(nbi, nbj))

	// One pooled slab holds the shared boundaries and every worker's two
	// DP rows.
	rowLen := bs + 1
	buf, slab := borrow(C + R + nbi + workers*2*rowLen)
	defer rowPool.Put(buf)
	top, left, corner, rows := slab[:C], slab[C:C+R], slab[C+R:C+R+nbi], slab[C+R+nbi:]

	corner[0] = p.Rows.Boundary(top, left)
	for bi := 1; bi < nbi; bi++ {
		corner[bi] = left[bi*bs-1]
	}

	blocksOf := func(d int) int {
		return min(d, nbi-1) - max(d-(nbj-1), 0) + 1
	}
	par.Wavefront(nbi+nbj-1, workers, blocksOf, func(worker, d, k int) {
		bi := max(d-(nbj-1), 0) + k
		bj := d - bi
		i0, i1 := bi*bs+1, min((bi+1)*bs, R)
		j0, j1 := bj*bs+1, min((bj+1)*bs, C)
		width := j1 - j0 + 1
		topSeg := top[j0-1 : j1]
		leftSeg := left[i0-1 : i1]
		// The right neighbor's corner is DP(i0-1, j1): the last element of
		// this block's top input, captured before the bottom row replaces it.
		nextCorner := topSeg[width-1]
		if p.W > 0 && (j1 < i0-p.W || j0 > i1+p.W) {
			// Entirely outside the band: every cell holds OOB; only the
			// boundaries need materializing.
			fill(topSeg, p.OOB)
			fill(leftSeg, p.OOB)
			corner[bi] = nextCorner
			return
		}
		base := worker * 2 * rowLen
		prev := rows[base : base+rowLen]
		cur := rows[base+rowLen : base+2*rowLen]
		prev[0] = corner[bi]
		copy(prev[1:width+1], topSeg)
		for i := i0; i <= i1; i++ {
			cur[0] = leftSeg[i-i0]
			lo, hi := p.band(i, j0, j1)
			// Cells of this block row outside the band hold OOB.
			fill(cur[1:min(lo, j1+1)-j0+1], p.OOB)
			fill(cur[max(hi+1, j0)-j0+1:width+1], p.OOB)
			if lo <= hi {
				p.Rows.Row(i, lo, hi, prev[lo-j0:], cur[lo-j0:])
			}
			leftSeg[i-i0] = cur[width]
			prev, cur = cur, prev
		}
		copy(topSeg, prev[1:width+1])
		corner[bi] = nextCorner
	})
	return top[C-1]
}
