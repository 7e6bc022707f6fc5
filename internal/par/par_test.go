package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		for _, workers := range []int{1, 2, 3, 8, 200} {
			hits := make([]int32, n)
			For(n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d hit %d times", n, workers, i, h)
				}
			}
		}
	}
}

func TestForShardWorkerIndexInRange(t *testing.T) {
	const n, workers = 500, 4
	var mu sync.Mutex
	seen := map[int]bool{}
	ForShard(n, workers, func(w, i int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of range", w)
		}
		mu.Lock()
		seen[w] = true
		mu.Unlock()
	})
	if len(seen) == 0 {
		t.Fatal("no workers ran")
	}
}

func TestForShardAscendingWithinWorker(t *testing.T) {
	const n, workers = 2000, 4
	last := make([]int, workers)
	for w := range last {
		last[w] = -1
	}
	ForShard(n, workers, func(w, i int) {
		if i <= last[w] {
			t.Errorf("worker %d: index %d after %d", w, i, last[w])
		}
		last[w] = i
	})
}

func TestForSequentialFallback(t *testing.T) {
	// workers <= 1 must run inline, in order, on worker 0.
	prev := -1
	ForShard(10, 1, func(w, i int) {
		if w != 0 {
			t.Errorf("expected worker 0, got %d", w)
		}
		if i != prev+1 {
			t.Errorf("out-of-order inline iteration: %d after %d", i, prev)
		}
		prev = i
	})
	if prev != 9 {
		t.Fatalf("inline run stopped at %d", prev)
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Errorf("Workers(0) = %d, want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Errorf("Workers(1) = %d, want 1", w)
	}
	if w := Workers(1 << 30); w < 1 {
		t.Errorf("Workers(big) = %d", w)
	}
}

func TestWorkersRespectsGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, p := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(p)
		if w := Workers(1 << 30); w != p {
			t.Errorf("GOMAXPROCS=%d: Workers(big) = %d, want %d", p, w, p)
		}
	}
}

func TestForCtxNilAndUncancelledMatchFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1023} {
		for _, workers := range []int{1, 4} {
			want := make([]int32, n)
			For(n, workers, func(i int) { atomic.AddInt32(&want[i], int32(i+1)) })

			got := make([]int32, n)
			if err := ForCtx(nil, n, workers, func(i int) { atomic.AddInt32(&got[i], int32(i+1)) }); err != nil {
				t.Fatalf("ForCtx(nil): %v", err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("nil-ctx mismatch at %d: %d vs %d", i, got[i], want[i])
				}
			}

			got = make([]int32, n)
			if err := ForCtx(context.Background(), n, workers, func(i int) { atomic.AddInt32(&got[i], int32(i+1)) }); err != nil {
				t.Fatalf("ForCtx(Background): %v", err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("background-ctx mismatch at %d: %d vs %d", i, got[i], want[i])
				}
			}
		}
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := int32(0)
	err := ForCtx(ctx, 1000, 4, func(i int) { atomic.AddInt32(&ran, 1) })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Errorf("%d iterations ran under a pre-cancelled context", ran)
	}
}

func TestForShardCtxCancellationBoundsExtraWork(t *testing.T) {
	// Cancel the context from inside iteration 0 of each worker's first
	// chunk. The contract: a cancelled run stops within one chunk per
	// worker, so the iteration count is bounded by workers * chunk size
	// (chunks in flight at cancellation finish; nothing new is claimed).
	const n, workers = 100_000, 4
	chunk := n / (workers * chunksPerWorker)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForShardCtx(ctx, n, workers, func(_, i int) {
		cancel()
		ran.Add(1)
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	limit := int64(workers * chunk)
	if got := ran.Load(); got > limit {
		t.Errorf("cancelled run executed %d iterations, want <= %d (one chunk per worker)", got, limit)
	}
}

// serialSink keeps the serial-dispatch iterations observable without a
// closure capture, so the allocation check below measures the dispatcher
// alone.
var serialSink atomic.Int64

func serialBody(_, i int) { serialSink.Add(int64(i)) }

// TestSerialDispatchAllocFree pins the claim of DESIGN §12: with one
// worker, passed explicitly, ForShard and ForShardCtx run inline on the
// caller goroutine and allocate nothing, uncancelled or nil context alike.
// (A capturing closure costs its caller one allocation, because fn
// escapes to the parallel path; the dispatch itself adds none.)
func TestSerialDispatchAllocFree(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx.Done() // create the done channel before measuring
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"ForShard", func() { ForShard(1000, 1, serialBody) }},
		{"ForShardCtx/nil", func() { ForShardCtx(nil, 1000, 1, serialBody) }},
		{"ForShardCtx/live", func() { ForShardCtx(ctx, 1000, 1, serialBody) }},
	} {
		if n := testing.AllocsPerRun(20, tc.run); n != 0 {
			t.Errorf("%s: serial dispatch allocates %v per run, want 0", tc.name, n)
		}
	}
}

func TestForShardCtxPanicPropagatesOriginalValue(t *testing.T) {
	type sentinel struct{ msg string }
	val := sentinel{msg: "worker exploded"}
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				got, ok := r.(sentinel)
				if !ok || got != val {
					t.Fatalf("workers=%d: recovered %#v, want original %#v", workers, r, val)
				}
			}()
			_ = ForShardCtx(context.Background(), 10_000, workers, func(_, i int) {
				if i == 3 {
					panic(val)
				}
			})
		}()
		// Workers must all have exited before the panic re-raised; poll
		// briefly to absorb scheduler lag in goroutine accounting.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("workers=%d: goroutine leak after panic: %d -> %d", workers, before, after)
		}
	}
}

func TestForShardCtxPanicStopsDispatch(t *testing.T) {
	// After any worker panics, other workers stop claiming chunks: the
	// total executed iteration count stays far below n.
	const n, workers = 1_000_000, 4
	var ran atomic.Int64
	func() {
		defer func() { _ = recover() }()
		_ = ForShardCtx(context.Background(), n, workers, func(_, i int) {
			ran.Add(1)
			if ran.Load() == 1 {
				panic("stop")
			}
		})
	}()
	if got := ran.Load(); got >= n {
		t.Errorf("dispatch did not stop after panic: ran %d of %d", got, n)
	}
}
