package search_test

import (
	"context"
	"math"
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

// TestLeaveOneOutGridCtxCancelsPromptly cancels mid-scan from inside the
// measure itself and asserts the run stops within dispatch-chunk
// granularity: the total distance-call count stays well below the full
// sweep's, and the error is context.Canceled.
func TestLeaveOneOutGridCtxCancelsPromptly(t *testing.T) {
	train := cancelTrain()
	n := int64(len(train))
	full := 3 * n * (n - 1) // three candidates, all ordered pairs each

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	cands := []measure.Measure{
		cancellingMeasure{calls: &calls, trigger: 5, cancel: cancel},
		cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}},
		cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}},
	}
	_, err := search.LeaveOneOutGridCtx(ctx, cands, train, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got >= full/2 {
		t.Errorf("cancelled grid sweep ran %d of %d distance calls; cancellation is not chunk-prompt", got, full)
	}
}

// TestLeaveOneOutCtxCancelsPromptly is the single-candidate analogue:
// leave-one-out is the grid engine over one candidate, so a cancelled run
// also follows the grid's rule and returns a zero Result, never a
// half-scanned one.
func TestLeaveOneOutCtxCancelsPromptly(t *testing.T) {
	train := cancelTrain()
	n := int64(len(train))
	full := n * (n - 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	m := cancellingMeasure{calls: &calls, trigger: 5, cancel: cancel}
	gr, err := search.LeaveOneOutGridCtx(ctx, []measure.Measure{m}, train, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got >= full/2 {
		t.Errorf("cancelled leave-one-out ran %d of %d distance calls", got, full)
	}
	if r := gr.PerCandidate[0]; r.Indices != nil || r.Distances != nil || r.Stats != (search.Stats{}) {
		t.Errorf("cancelled leave-one-out returned a non-zero Result: %+v", r)
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
