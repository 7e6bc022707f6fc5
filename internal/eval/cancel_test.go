package eval

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
)

// cancellingStateful is a Stateful measure that counts PreparedDistance
// calls and cancels the run's context at the trigger-th one.
type cancellingStateful struct {
	calls   *atomic.Int64
	trigger int64
	cancel  context.CancelFunc
}

func (c cancellingStateful) Name() string { return "cancelling-stateful" }

func (c cancellingStateful) Distance(x, y []float64) float64 {
	return c.PreparedDistance(c.Prepare(x), c.Prepare(y))
}

func (c cancellingStateful) Prepare(x []float64) any { return x }

func (c cancellingStateful) PreparedDistance(px, py any) float64 {
	if c.calls.Add(1) == c.trigger {
		c.cancel()
	}
	x, y := px.([]float64), py.([]float64)
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func cancelSeries(n, m int) [][]float64 {
	rng := rand.New(rand.NewSource(19))
	series := make([][]float64, n)
	for i := range series {
		series[i] = make([]float64, m)
		for j := range series[i] {
			series[i][j] = rng.NormFloat64()
		}
	}
	return series
}

// TestMatrixCtxPreCancelled: a square prepared matrix under an already
// cancelled context returns context.Canceled without computing a pair.
func TestMatrixCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	series := cancelSeries(8, 32)
	m := cancellingStateful{calls: &calls, trigger: -1, cancel: func() {}}
	if _, err := MatrixCtx(ctx, m, series, series); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d distances ran under a pre-cancelled context", n)
	}
}

// TestMatrixCtxUncancelledBitwise pins the ctx plumbing of the square
// SINK matrix: a run under a live, never-cancelled context equals the
// background-context Matrix bit for bit.
func TestMatrixCtxUncancelledBitwise(t *testing.T) {
	series := cancelSeries(14, 48)
	s := kernel.SINK{Gamma: 5}
	want := Matrix(s, series, series)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := MatrixCtx(ctx, s, series, series)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("cell (%d,%d): live ctx %v, background %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestMatrixCtxCancelMidRun cancels a square prepared matrix from inside
// its k-th pair distance. Rows are dispatched through internal/par, whose
// chunk is the only cancellation point, so at most k + workers x chunk x n
// distances run, chunk being n/(workers*8); the error is context.Canceled.
func TestMatrixCtxCancelMidRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	series := cancelSeries(64, 8)
	const k = 20
	n := len(series)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		workers := min(procs, n)
		chunk := max(n/(workers*8), 1)
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		_, err := MatrixCtx(ctx, cancellingStateful{calls: &calls, trigger: k, cancel: cancel}, series, series)
		cancel()
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		if limit := int64(k + workers*chunk*n); calls.Load() < k || calls.Load() > limit {
			t.Errorf("procs=%d: %d distances ran, want %d..%d", procs, calls.Load(), k, limit)
		}
	}
}
