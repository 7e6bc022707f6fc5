package par

// Wavefront scheduling for blocked dynamic programs: the DP matrix is cut
// into blocks whose dependencies (left, top, top-left neighbors) make every
// anti-diagonal of blocks independent once the previous diagonal is done.
// Wavefront runs the diagonals in sequence with a full barrier between
// them and dispatches the blocks of one diagonal across workers through the
// same chunked atomic counter as ForShard, so the elastic DP kernels in
// internal/elastic inherit load balancing and panic containment without new
// machinery. One DP is never cancelled: its callers poll their context
// between distances, at their own dispatch chunk.

// Wavefront runs fn(worker, d, k) for every diagonal d in [0, diagonals)
// and every block k in [0, blocks(d)), with a barrier after each diagonal:
// no block of diagonal d starts before every block of diagonal d-1 has
// finished, which is exactly the dependency order of an anti-diagonal
// blocked DP. Within one diagonal, blocks are dispatched across up to
// workers goroutines; worker indices lie in [0, workers) on every diagonal,
// so per-worker scratch allocated once is valid throughout.
func Wavefront(diagonals, workers int, blocks func(d int) int, fn func(worker, d, k int)) {
	for d := 0; d < diagonals; d++ {
		ForShard(blocks(d), workers, func(worker, k int) {
			fn(worker, d, k)
		})
	}
}
