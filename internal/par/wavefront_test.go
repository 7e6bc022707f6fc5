package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestWavefrontBarrier asserts the scheduling invariant DP kernels rely
// on: a block of diagonal d never starts before every block of diagonal
// d-1 completed.
func TestWavefrontBarrier(t *testing.T) {
	const diags = 9
	blocks := func(d int) int {
		if d < diags/2 {
			return d + 1
		}
		return diags - d
	}
	done := make([]atomic.Int64, diags)
	var violations atomic.Int64
	Wavefront(diags, 4, blocks, func(_, d, k int) {
		if d > 0 && int(done[d-1].Load()) != blocks(d-1) {
			violations.Add(1)
		}
		done[d].Add(1)
	})
	if violations.Load() != 0 {
		t.Fatalf("%d blocks started before the previous diagonal finished", violations.Load())
	}
	for d := 0; d < diags; d++ {
		if int(done[d].Load()) != blocks(d) {
			t.Fatalf("diagonal %d ran %d of %d blocks", d, done[d].Load(), blocks(d))
		}
	}
}

// TestWavefrontVisitsEveryBlock checks exact coverage (each block once)
// across worker counts, including the serial inline path.
func TestWavefrontVisitsEveryBlock(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		var mu sync.Mutex
		seen := map[[2]int]int{}
		Wavefront(6, workers, func(d int) int { return 3 }, func(_, d, k int) {
			mu.Lock()
			seen[[2]int{d, k}]++
			mu.Unlock()
		})
		if len(seen) != 18 {
			t.Fatalf("workers=%d: visited %d blocks, want 18", workers, len(seen))
		}
		for dk, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: block %v ran %d times", workers, dk, n)
			}
		}
	}
}

// TestWavefrontWorkerIndexBounds asserts worker indices stay in
// [0, workers) on every diagonal, so per-worker scratch sized once is safe.
func TestWavefrontWorkerIndexBounds(t *testing.T) {
	const workers = 3
	var bad atomic.Int64
	Wavefront(5, workers, func(d int) int { return 8 }, func(w, _, _ int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d blocks saw a worker index outside [0, %d)", bad.Load(), workers)
	}
}

// TestWavefrontEmptyDiagonals: zero-block diagonals are skipped, later
// ones still run (a banded DP can have leading/trailing empty diagonals).
func TestWavefrontEmptyDiagonals(t *testing.T) {
	var got []int
	Wavefront(4, 1, func(d int) int {
		if d%2 == 0 {
			return 0
		}
		return 1
	}, func(_, d, _ int) { got = append(got, d) })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("ran diagonals %v, want [1 3]", got)
	}
}
