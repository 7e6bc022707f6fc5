package kernel

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func cancelSeries(n, m int) [][]float64 {
	rng := rand.New(rand.NewSource(31))
	series := make([][]float64, n)
	for i := range series {
		series[i] = randSeries(rng, m)
	}
	return series
}

func TestNewGramEngineCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := NewGramEngineCtx(ctx, SINK{Gamma: 5}, cancelSeries(8, 32))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if e != nil {
		t.Error("a cancelled construction must not return a usable engine")
	}
}

func TestFillDistancesCtxPreCancelled(t *testing.T) {
	series := cancelSeries(8, 32)
	e := newGramEngine(SINK{Gamma: 5}, series)
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.FillDistancesCtx(ctx, rows); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFillDistancesCtxMidFillCancel cancels a large fill shortly after it
// starts. On a machine fast enough to finish first the test skips; when the
// cancellation lands, the error contract must hold.
func TestFillDistancesCtxMidFillCancel(t *testing.T) {
	series := cancelSeries(96, 256)
	e := newGramEngine(SINK{Gamma: 5}, series)
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	err := e.FillDistancesCtx(ctx, rows)
	if err == nil {
		t.Skip("fill completed before the cancellation landed")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestFillDistancesCtxUncancelledBitwise pins the nil-ctx contract: an
// uncancelled ctx fill is bit-identical to the nil-ctx fill.
func TestFillDistancesCtxUncancelledBitwise(t *testing.T) {
	series := cancelSeries(14, 48)
	e := newGramEngine(SINK{Gamma: 5}, series)
	n := len(series)
	want := make([][]float64, n)
	got := make([][]float64, n)
	for i := 0; i < n; i++ {
		want[i] = make([]float64, n)
		got[i] = make([]float64, n)
	}
	e.FillDistancesCtx(nil, want)
	if err := e.FillDistancesCtx(context.Background(), got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got[i][j] != want[i][j] {
				t.Fatalf("cell (%d,%d): ctx %v differs from nil ctx %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestSelfMatrixCtxPreCancelled pins the ContextSelfMatrixer contract SINK
// exposes to the evaluation layer.
func TestSelfMatrixCtxPreCancelled(t *testing.T) {
	series := cancelSeries(8, 32)
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := (SINK{Gamma: 5}).SelfMatrixCtx(ctx, series, rows); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
