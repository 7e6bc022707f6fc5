// Package par provides the shared parallel-for primitive used by the
// evaluation and search hot paths. Iterations are handed out in chunks
// through an atomic counter rather than one index at a time over a
// channel, so cheap lock-step rows do not serialize on dispatch while
// expensive elastic tails still balance across workers.
//
// The context-aware variants (ForCtx, ForShardCtx) add the run-core
// contract every long-running caller builds on: cooperative cancellation
// checked at chunk-claim granularity (a cancelled run stops within one
// chunk per worker) and worker panic containment (a panic inside any
// iteration is recovered, stops the remaining dispatch, and is re-raised
// on the caller goroutine with its original value once every worker has
// exited, so no goroutine leaks and no panic escapes on a foreign stack).
// For and ForShard are thin wrappers over the same core with a nil done
// channel, so the hot path pays nothing for the plumbing.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// chunksPerWorker controls the dispatch granularity: each worker receives
// on the order of chunksPerWorker chunks, keeping the atomic counter cold
// while leaving enough chunks for load balancing when iteration costs are
// skewed (e.g. the shrinking rows of a triangular matrix). It also bounds
// the cancellation latency: a cancelled context is observed before every
// chunk claim, so at most one chunk per worker runs after cancellation.
const chunksPerWorker = 8

// Workers returns the worker count for n independent iterations: the
// effective parallelism GOMAXPROCS(0) capped at n, and at least 1.
// GOMAXPROCS — not NumCPU — so container CPU quotas and test-time
// runtime.GOMAXPROCS overrides bound the goroutine count.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(i) for every i in [0, n) across up to workers goroutines.
func For(n, workers int, fn func(i int)) {
	ForShard(n, workers, func(_, i int) { fn(i) })
}

// ForShard is For with the worker index passed through, so callers can
// maintain per-worker scratch state without locking. Worker indices lie in
// [0, workers). Within one worker, iterations arrive in increasing order;
// chunks are claimed in increasing order globally.
func ForShard(n, workers int, fn func(worker, i int)) {
	forShard(nil, n, workers, fn)
}

// ForCtx is For with cooperative cancellation: the context is checked
// before every chunk claim, so a cancelled run stops within one chunk per
// worker and returns the context's error with the remaining iterations
// unvisited. An uncancelled run executes the exact same chunk schedule as
// For. A nil context never cancels.
func ForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	return ForShardCtx(ctx, n, workers, func(_, i int) { fn(i) })
}

// ForShardCtx is ForShard with cooperative cancellation; see ForCtx. On a
// non-nil error some iterations did not run; visited iterations form a
// prefix of each worker's chunk sequence, never a partial chunk.
func ForShardCtx(ctx context.Context, n, workers int, fn func(worker, i int)) error {
	if ctx == nil {
		forShard(nil, n, workers, fn)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	forShard(ctx.Done(), n, workers, fn)
	return ctx.Err()
}

// forShard is the shared dispatch core. done is an optional cancellation
// signal (nil = never cancels) polled before every chunk claim; a closed
// done stops further claims but lets in-flight chunks finish, keeping the
// "no partial chunk" invariant callers rely on for partial results.
func forShard(done <-chan struct{}, n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	chunk := n / (workers * chunksPerWorker)
	if chunk < 1 {
		chunk = 1
	}
	if workers <= 1 {
		// Inline on the caller goroutine: same iteration order as before,
		// cancellation honored between chunks, panics propagate natively.
		for start := 0; start < n; start += chunk {
			select {
			case <-done:
				return
			default:
			}
			end := start + chunk
			if end > n {
				end = n
			}
			for i := start; i < end; i++ {
				fn(0, i)
			}
		}
		return
	}
	forShardParallel(done, n, workers, chunk, fn)
}

// forShardParallel is forShard's multi-worker dispatch. It lives in its own
// function so the worker closure's captured variables are heap-moved only
// on this path: with them inline, escape analysis would charge the serial
// path (allocation-free, pinned by TestSerialDispatchAllocFree) one heap
// move per call for a closure it never creates.
func forShardParallel(done <-chan struct{}, n, workers, chunk int, fn func(worker, i int)) {
	var (
		next      atomic.Int64
		wg        sync.WaitGroup
		panicked  atomic.Bool
		panicOnce sync.Once
		panicVal  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer func() {
				if r := recover(); r != nil {
					// Keep the first panic value verbatim; it is re-raised
					// on the caller goroutine after every worker exits.
					panicOnce.Do(func() { panicVal = r })
					panicked.Store(true)
				}
				wg.Done()
			}()
			for {
				if panicked.Load() {
					return
				}
				select {
				case <-done:
					return
				default:
				}
				end := int(next.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}
