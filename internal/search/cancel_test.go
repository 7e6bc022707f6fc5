package search_test

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/search"
)

// cancellingMeasure counts Distance calls and cancels the run's context
// once the count reaches trigger, letting tests observe how much work runs
// after cancellation.
type cancellingMeasure struct {
	calls   *atomic.Int64
	trigger int64
	cancel  context.CancelFunc
}

func (c cancellingMeasure) Name() string { return "cancelling" }

func (c cancellingMeasure) Distance(x, y []float64) float64 {
	if c.calls.Add(1) == c.trigger {
		c.cancel()
	}
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func cancelTrain() [][]float64 {
	d := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 3, Count: 1, MaxLength: 24, MaxTrain: 40, MaxTest: 4,
	})[0]
	return d.Train
}

func TestOneNNCtxPreCancelled(t *testing.T) {
	train := cancelTrain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int64
	m := cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}}
	if _, err := search.OneNNCtx(ctx, m, train, train); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("%d distance calls ran under a pre-cancelled context", n)
	}
}

// looCancelBound is the most distance calls a leave-one-out sweep over
// cands scan-path candidates may run when one of them cancels at its
// trigger-th call, derived from the grid engine's dispatch: rows are cut
// into row chunks of n/(workers*4), (candidate, row chunk) items are
// claimed through internal/par in chunks of items/(workers*8), and each
// worker finishes at most the one chunk it holds. A scanned row computes
// n-1 distances.
func looCancelBound(trigger int64, cands, n, procs int) int64 {
	workers := min(procs, cands*n)
	rowChunk := max(n/(workers*4), 1)
	items := cands * ((n + rowChunk - 1) / rowChunk)
	itemChunk := max(items/(workers*8), 1)
	return trigger + int64(workers*itemChunk*rowChunk*(n-1))
}

// TestLeaveOneOutGridCtxCancelsPromptly cancels a three-candidate sweep
// from inside its fifth distance and bounds the work that still runs to
// one dispatch chunk per worker, at one and four workers; the error is
// context.Canceled.
func TestLeaveOneOutGridCtxCancelsPromptly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train := cancelTrain()
	const trigger = 5
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		cands := []measure.Measure{
			cancellingMeasure{calls: &calls, trigger: trigger, cancel: cancel},
			cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}},
			cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}},
		}
		_, err := search.LeaveOneOutGridCtx(ctx, cands, train, nil)
		cancel()
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		limit := looCancelBound(trigger, len(cands), len(train), procs)
		if got := calls.Load(); got < trigger || got > limit {
			t.Errorf("procs=%d: cancelled grid sweep ran %d distance calls, want %d..%d", procs, got, trigger, limit)
		}
	}
}

// TestLeaveOneOutCtxCancelsPromptly is the single-candidate analogue:
// leave-one-out is the grid engine over one candidate, so a cancelled run
// follows the same one-chunk bound and the grid's rule of returning a
// zero Result, never a half-scanned one.
func TestLeaveOneOutCtxCancelsPromptly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train := cancelTrain()
	const trigger = 5
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		m := cancellingMeasure{calls: &calls, trigger: trigger, cancel: cancel}
		gr, err := search.LeaveOneOutGridCtx(ctx, []measure.Measure{m}, train, nil)
		cancel()
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		limit := looCancelBound(trigger, 1, len(train), procs)
		if got := calls.Load(); got < trigger || got > limit {
			t.Errorf("procs=%d: cancelled leave-one-out ran %d distance calls, want %d..%d", procs, got, trigger, limit)
		}
		if r := gr.PerCandidate[0]; r.Indices != nil || r.Distances != nil || r.Stats != (search.Stats{}) {
			t.Errorf("procs=%d: cancelled leave-one-out returned a non-zero Result: %+v", procs, r)
		}
	}
}

// TestGridCtxUncancelledMatchesPlain pins the cancellation plumbing: a run
// under a live (cancellable, never cancelled) context is bit-identical to
// the plain LeaveOneOut of each candidate, which runs without one.
func TestGridCtxUncancelledMatchesPlain(t *testing.T) {
	train := cancelTrain()
	var calls atomic.Int64
	cands := []measure.Measure{
		cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}},
		measure.New("ed", func(x, y []float64) float64 {
			s := 0.0
			for i := range x {
				d := x[i] - y[i]
				s += d * d
			}
			return math.Sqrt(s)
		}),
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := search.LeaveOneOutGridCtx(ctx, cands, train, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, cand := range cands {
		w, g := search.LeaveOneOut(cand, train), got.PerCandidate[k]
		for i := range w.Indices {
			if g.Indices[i] != w.Indices[i] || g.Distances[i] != w.Distances[i] {
				t.Fatalf("candidate %d row %d: ctx path (%d, %v) differs from plain (%d, %v)",
					k, i, g.Indices[i], g.Distances[i], w.Indices[i], w.Distances[i])
			}
		}
	}
}
