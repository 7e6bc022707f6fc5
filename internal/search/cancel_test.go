package search_test

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/ann"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/search"
)

// cancellingMeasure counts Distance calls and cancels the run's context
// once the count reaches trigger, storing the count in atCancel once the
// cancel has returned, letting tests observe how much work runs after
// cancellation. The goroutine that cancels can be descheduled between its
// trigger-th call and the cancel's return while other workers keep
// claiming work: under CPU load on two cores, a four-worker sweep had made
// 710 of its 720 calls by then.
type cancellingMeasure struct {
	calls    *atomic.Int64
	trigger  int64
	cancel   context.CancelFunc
	atCancel *atomic.Int64
}

func (c cancellingMeasure) Name() string { return "cancelling" }

func (c cancellingMeasure) Distance(x, y []float64) float64 {
	if c.calls.Add(1) == c.trigger {
		c.cancel()
		c.atCancel.Store(c.calls.Load())
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
// cands scan-path candidates may run after one of them has cancelled it,
// derived from the grid engine's dispatch: rows are cut into row chunks of
// n/(workers*4), (candidate, row chunk) items are claimed through
// internal/par in chunks of items/(workers*8), and each worker finishes at
// most the one chunk it holds. A scanned row computes n-1 distances.
func looCancelBound(cands, n, procs int) int64 {
	workers := min(procs, cands*n)
	rowChunk := max(n/(workers*4), 1)
	items := cands * ((n + rowChunk - 1) / rowChunk)
	itemChunk := max(items/(workers*8), 1)
	return int64(workers * itemChunk * rowChunk * (n - 1))
}

// TestLeaveOneOutGridCtxCancelsPromptly cancels a three-candidate sweep
// from inside its fifth distance and bounds the work that still runs once
// the cancel has returned to one dispatch chunk per worker, at one and
// four workers; the error is context.Canceled.
func TestLeaveOneOutGridCtxCancelsPromptly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train := cancelTrain()
	const trigger = 5
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		var calls, atCancel atomic.Int64
		cands := []measure.Measure{
			cancellingMeasure{calls: &calls, trigger: trigger, cancel: cancel, atCancel: &atCancel},
			cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}},
			cancellingMeasure{calls: &calls, trigger: -1, cancel: func() {}},
		}
		_, err := search.LeaveOneOutGridCtx(ctx, cands, train, nil)
		cancel()
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		limit := looCancelBound(len(cands), len(train), procs)
		got := calls.Load()
		if after := got - atCancel.Load(); got < trigger || after > limit {
			t.Errorf("procs=%d: cancelled grid sweep ran %d distance calls, %d after the cancel returned, want at least %d and at most %d after",
				procs, got, after, trigger, limit)
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
		var calls, atCancel atomic.Int64
		m := cancellingMeasure{calls: &calls, trigger: trigger, cancel: cancel, atCancel: &atCancel}
		gr, err := search.LeaveOneOutGridCtx(ctx, []measure.Measure{m}, train, nil)
		cancel()
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		limit := looCancelBound(1, len(train), procs)
		got := calls.Load()
		if after := got - atCancel.Load(); got < trigger || after > limit {
			t.Errorf("procs=%d: cancelled leave-one-out ran %d distance calls, %d after the cancel returned, want at least %d and at most %d after",
				procs, got, after, trigger, limit)
		}
		if r := gr.PerCandidate[0]; r.Indices != nil || r.Distances != nil || r.Stats != (search.Stats{}) {
			t.Errorf("procs=%d: cancelled leave-one-out returned a non-zero Result: %+v", procs, r)
		}
	}
}

// queryCancelBound is the most distance calls a query fan-out may run
// after it has been cancelled, derived from the dispatch both 1-NN and
// approximate searches share: queries go to par.Workers(queries) workers
// in chunks of queries/(workers*8) through internal/par, each worker
// finishes at most the one chunk it holds, and one query runs at most
// perQuery distances. A lone 1-NN query dispatches its blocks the same
// way, each block running at most search.ScanBlock distances.
func queryCancelBound(queries, perQuery, procs int) int64 {
	workers := min(procs, queries)
	chunk := max(queries/(workers*8), 1)
	return int64(workers * chunk * perQuery)
}

// TestOneNNSnapshotCtxCancelsPromptly cancels a snapshot-served 1-NN
// search from inside its fifth distance, at one and four workers: the
// error is context.Canceled and the work that still runs once the cancel
// has returned stays within one dispatch chunk per worker. A batch's
// chunks are queries, each scanning every reference; a lone query's are
// blocks of search.ScanBlock references, over sixteen blocks here.
func TestOneNNSnapshotCtxCancelsPromptly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train := cancelTrain()
	lone := randomSet(31, 16*search.ScanBlock, 24)
	const trigger = 5
	for _, tc := range []struct {
		name           string
		queries, refs  [][]float64
		items, perItem int // dispatch items, and the distances one runs
	}{
		{"batch", train, train, len(train), len(train)},
		{"lone", lone[:1], lone, len(lone) / search.ScanBlock, search.ScanBlock},
	} {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			ctx, cancel := context.WithCancel(context.Background())
			var calls, atCancel atomic.Int64
			m := cancellingMeasure{calls: &calls, trigger: trigger, cancel: cancel, atCancel: &atCancel}
			snap, err := corpus.BuildCtx(context.Background(), tc.refs, corpus.Options{Measures: []measure.Measure{m}})
			if err != nil {
				t.Fatal(err)
			}
			_, err = search.OneNNSnapshotCtx(ctx, m, tc.queries, tc.refs, snap)
			cancel()
			if err != context.Canceled {
				t.Fatalf("%s, procs=%d: err = %v, want context.Canceled", tc.name, procs, err)
			}
			limit := queryCancelBound(tc.items, tc.perItem, procs)
			got := calls.Load()
			if after := got - atCancel.Load(); got < trigger || after > limit {
				t.Errorf("%s, procs=%d: cancelled 1-NN search ran %d distance calls, %d after the cancel returned, want at least %d and at most %d after",
					tc.name, procs, got, after, trigger, limit)
			}
		}
	}
}

// TestKNNApproxSnapshotCtxCancelsPromptly is the approximate analogue on
// the warm path: the snapshot holds the ANN index, so every exact distance
// comes from a query's re-rank of its candidate budget, and once a cancel
// at the fifth has returned at most one chunk of queries per worker runs.
func TestKNNApproxSnapshotCtxCancelsPromptly(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	train := cancelTrain()
	const trigger = 5
	cfg := ann.Config{Candidates: 8, Seed: 1}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		var calls, atCancel atomic.Int64
		m := cancellingMeasure{calls: &calls, trigger: trigger, cancel: cancel, atCancel: &atCancel}
		snap, err := corpus.BuildCtx(context.Background(), train, corpus.Options{ANN: []corpus.ANNSpec{{Measure: m, Config: cfg}}})
		if err != nil {
			t.Fatal(err)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("procs=%d: the ANN build ran %d exact distances", procs, n)
		}
		_, err = search.KNNApproxSnapshotCtx(ctx, m, train, train, 1, cfg, snap)
		cancel()
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		limit := queryCancelBound(len(train), cfg.Candidates, procs)
		got := calls.Load()
		if after := got - atCancel.Load(); got < trigger || after > limit {
			t.Errorf("procs=%d: cancelled approximate search ran %d distance calls, %d after the cancel returned, want at least %d and at most %d after",
				procs, got, after, trigger, limit)
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
