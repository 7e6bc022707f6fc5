// Package eval implements the paper's evaluation framework (Section 3):
// dissimilarity-matrix computation (parallelized across rows, with the
// measure.Stateful fast path), the 1-NN classifier of Algorithm 1 for test
// accuracy, the leave-one-out variant used for supervised parameter tuning,
// the parameter grids of Table 4, and the per-dataset evaluation pipeline
// combining a normalization method with a distance measure.
//
// Each operation has one path, taking a context: MatrixCtx,
// TuneSupervisedCtx (whose optional corpus snapshot serves the grid's
// per-series state; nil prepares inline), TestAccuracyCtx and
// SupervisedAccuracyCtx. Every path is cancelled at the dispatch chunk of
// internal/par, and a cancelled call's partial result is discarded.
// Matrix and TuneSupervisedDetailedCtx are one-line wrappers kept for the
// end-to-end benchmark. The accuracy paths run on the pruned matrix-free
// engine of internal/search; MatrixCtx remains the exhaustive reference
// used by the runtime experiments and the exactness property tests. Both
// produce identical neighbors, including ties.
package eval

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/norm"
	"repro/internal/par"
	"repro/internal/search"
)

// Matrix is MatrixCtx over a background context.
func Matrix(m measure.Measure, queries, refs [][]float64) [][]float64 {
	e, _ := MatrixCtx(context.Background(), m, queries, refs)
	return e
}

// MatrixCtx computes the dissimilarity matrix E with E[i][j] =
// d(queries[i], refs[j]). Rows are computed in parallel across all CPUs.
// NaN distances are sanitized to +Inf so undefined measures rank last.
// When the measure implements measure.Stateful, each series is prepared
// exactly once; when it is exactly symmetric and the matrix is square over
// the same series, only the upper triangle is computed and mirrored.
//
// Cancellation is observed at the row-chunk granularity of internal/par:
// on a non-nil error the returned matrix is partially filled and must be
// discarded.
func MatrixCtx(ctx context.Context, m measure.Measure, queries, refs [][]float64) ([][]float64, error) {
	n, p := len(queries), len(refs)
	e := make([][]float64, n)
	if n == 0 {
		return e, nil
	}
	// One flat backing array sliced into rows: a single allocation instead
	// of one per row, and cache-contiguous row traversal downstream.
	flat := make([]float64, n*p)
	for i := range e {
		e[i] = flat[i*p : (i+1)*p : (i+1)*p]
	}
	workers := par.Workers(n)

	// Batched panel fast path: a PanelEvaluator fills each matrix row in one
	// call over the whole reference panel, bitwise-identical to the per-pair
	// loop by the contract; only the NaN sanitization stays on this side. If
	// any row declines (ragged lengths), the whole matrix falls through to
	// the generic paths below and every row is recomputed per-pair.
	if pe, ok := m.(measure.PanelEvaluator); ok {
		var declined atomic.Bool
		if err := par.ForCtx(ctx, n, workers, func(i int) {
			if declined.Load() {
				return
			}
			row := e[i]
			if !pe.PanelDistances(queries[i], refs, row) {
				declined.Store(true)
				return
			}
			for j, v := range row {
				row[j] = measure.Sanitize(v)
			}
		}); err != nil {
			return e, err
		}
		if !declined.Load() {
			return e, nil
		}
	}

	// Resolve the per-cell kernel once, outside the row loops: the Stateful
	// fast path binds prepared states, and the plain path binds the Distance
	// method value so neither the type switch nor the interface lookup runs
	// per cell.
	var dist func(i, j int) float64
	if sm, ok := m.(measure.Stateful); ok {
		pq, err := prepareAll(ctx, sm, queries, workers)
		if err != nil {
			return e, err
		}
		pr := pq
		if !sameSeries(queries, refs) {
			if pr, err = prepareAll(ctx, sm, refs, workers); err != nil {
				return e, err
			}
		}
		pdist := sm.PreparedDistance
		dist = func(i, j int) float64 {
			return measure.Sanitize(pdist(pq[i], pr[j]))
		}
	} else {
		mdist := m.Distance
		dist = func(i, j int) float64 {
			return measure.Sanitize(mdist(queries[i], refs[j]))
		}
	}

	if measure.IsSymmetric(m) && sameSeries(queries, refs) {
		if err := par.ForCtx(ctx, n, workers, func(i int) {
			row := e[i]
			for j := i; j < p; j++ {
				row[j] = dist(i, j)
			}
		}); err != nil {
			return e, err
		}
		// Mirror the strict upper triangle; rows own their lower halves so
		// the writes race with nothing.
		if err := par.ForCtx(ctx, n, workers, func(i int) {
			row := e[i]
			for j := 0; j < i; j++ {
				row[j] = e[j][i]
			}
		}); err != nil {
			return e, err
		}
		return e, nil
	}

	err := par.ForCtx(ctx, n, workers, func(i int) {
		row := e[i]
		for j := range refs {
			row[j] = dist(i, j)
		}
	})
	return e, err
}

// sameSeries reports whether the two slices share identical backing rows,
// which holds when computing the square train-by-train matrix W.
func sameSeries(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) == 0 || len(b[i]) == 0 {
			if len(a[i]) != len(b[i]) {
				return false
			}
			continue
		}
		if &a[i][0] != &b[i][0] {
			return false
		}
	}
	return true
}

func prepareAll(ctx context.Context, sm measure.Stateful, series [][]float64, workers int) ([]any, error) {
	out := make([]any, len(series))
	err := par.ForCtx(ctx, len(series), workers, func(i int) {
		out[i] = sm.Prepare(series[i])
	})
	return out, err
}

// Neighbors returns the argmin of every row of E: the nearest reference
// index of each query, -1 for an empty row. Ties keep the lowest index.
func Neighbors(e [][]float64) []int {
	out := make([]int, len(e))
	for i, row := range e {
		best := -1
		for j, d := range row {
			if best == -1 || d < row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// LeaveOneOutNeighbors is Neighbors for a square train-by-train matrix W
// with the diagonal (self matches) excluded.
func LeaveOneOutNeighbors(w [][]float64) []int {
	out := make([]int, len(w))
	for i, row := range w {
		best := -1
		for j, d := range row {
			if j == i {
				continue
			}
			if best == -1 || d < row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

// AccuracyFromNeighbors scores nearest-neighbor predictions: the fraction
// of queries whose neighbor (an index into refLabels, -1 counting as a
// miss) carries the query's label.
func AccuracyFromNeighbors(neighbors []int, queryLabels, refLabels []int) float64 {
	if len(neighbors) != len(queryLabels) {
		panic(fmt.Sprintf("eval: %d neighbors, %d query labels", len(neighbors), len(queryLabels)))
	}
	if len(neighbors) == 0 {
		return 0
	}
	correct := 0
	for i, nb := range neighbors {
		if nb >= 0 && refLabels[nb] == queryLabels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(neighbors))
}

// OneNN implements Algorithm 1 of the paper: given the r-by-p matrix E of
// dissimilarities between test and training series, the test labels, and
// the training labels, it returns the fraction of test series whose
// nearest training series shares their label. Ties keep the first (lowest
// index) neighbor, making the result deterministic.
func OneNN(e [][]float64, testLabels, trainLabels []int) float64 {
	if len(e) != len(testLabels) {
		panic(fmt.Sprintf("eval: %d matrix rows, %d test labels", len(e), len(testLabels)))
	}
	for i, row := range e {
		if len(row) != len(trainLabels) {
			panic(fmt.Sprintf("eval: row %d has %d cols, %d train labels", i, len(row), len(trainLabels)))
		}
	}
	return AccuracyFromNeighbors(Neighbors(e), testLabels, trainLabels)
}

// LeaveOneOut computes the leave-one-out training accuracy from the square
// train-by-train matrix W, skipping the diagonal (self matches), which is
// the variant of Algorithm 1 the paper uses for parameter tuning.
func LeaveOneOut(w [][]float64, labels []int) float64 {
	if len(w) != len(labels) {
		panic(fmt.Sprintf("eval: %d matrix rows, %d labels", len(w), len(labels)))
	}
	return AccuracyFromNeighbors(LeaveOneOutNeighbors(w), labels, labels)
}

// Grid is a family of parameterized measure candidates sharing a name;
// supervised tuning picks the candidate with the best leave-one-out
// training accuracy (grid order breaks ties, keeping runs deterministic).
type Grid struct {
	Name       string
	Candidates []measure.Measure
}

// TuneSupervisedCtx returns the grid candidate maximizing leave-one-out
// accuracy on the training split, together with that accuracy and the
// engine's sweep statistics (preparation sharing, warm-start pruning, wave
// structure). The whole grid is scored in one pass of the tuning engine
// (search.LeaveOneOutGridCtx), which shares per-series preparation across
// candidates and warm-starts nested candidates from each other's results;
// the selection — including the grid-order tie-break — is identical to
// running each candidate independently. snap is optional: when it covers
// train it feeds the engine's per-series state, and GridStats.PrepSnapshot
// reports how many states it served. On a non-nil error the selection is
// meaningless (the sweep stopped mid-grid) and only the error should be
// consulted. It panics on an empty grid.
func TuneSupervisedCtx(ctx context.Context, g Grid, train [][]float64, labels []int, snap *corpus.Snapshot) (measure.Measure, float64, search.GridStats, error) {
	if len(g.Candidates) == 0 {
		panic(fmt.Sprintf("eval: empty grid %q", g.Name))
	}
	if len(train) != len(labels) {
		panic(fmt.Sprintf("eval: %d training series, %d labels", len(train), len(labels)))
	}
	gr, err := search.LeaveOneOutGridCtx(ctx, g.Candidates, train, snap)
	if err != nil {
		return g.Candidates[0], 0, gr.Stats, err
	}
	bestIdx, bestAcc := 0, -1.0
	for i := range g.Candidates {
		acc := AccuracyFromNeighbors(gr.PerCandidate[i].Indices, labels, labels)
		if acc > bestAcc {
			bestAcc = acc
			bestIdx = i
		}
	}
	return g.Candidates[bestIdx], bestAcc, gr.Stats, nil
}

// TuneSupervisedDetailedCtx is TuneSupervisedCtx without a snapshot.
func TuneSupervisedDetailedCtx(ctx context.Context, g Grid, train [][]float64, labels []int) (measure.Measure, float64, search.GridStats, error) {
	return TuneSupervisedCtx(ctx, g, train, labels, nil)
}

// Normalize applies the normalizer to every series of both splits,
// returning a new dataset; a nil normalizer returns the input unchanged.
func Normalize(d *dataset.Dataset, n norm.Normalizer) *dataset.Dataset {
	if n == nil {
		return d
	}
	out := &dataset.Dataset{
		Name:        d.Name,
		Train:       make([][]float64, len(d.Train)),
		TrainLabels: d.TrainLabels,
		Test:        make([][]float64, len(d.Test)),
		TestLabels:  d.TestLabels,
	}
	for i, s := range d.Train {
		out.Train[i] = n.Normalize(s)
	}
	for i, s := range d.Test {
		out.Test[i] = n.Normalize(s)
	}
	return out
}

// TestAccuracyCtx evaluates a fixed measure on a dataset: the 1-NN test
// accuracy, after applying the normalizer (which may be nil for
// pre-normalized data). Neighbors come from the pruned search engine; no
// test-by-train matrix is materialized. On a non-nil error the accuracy is
// meaningless.
func TestAccuracyCtx(ctx context.Context, m measure.Measure, d *dataset.Dataset, n norm.Normalizer) (float64, error) {
	nd := Normalize(d, n)
	res, err := search.OneNNCtx(ctx, m, nd.Test, nd.Train)
	if err != nil {
		return 0, err
	}
	return AccuracyFromNeighbors(res.Indices, nd.TestLabels, nd.TrainLabels), nil
}

// SupervisedAccuracyCtx tunes the grid on the training split
// (leave-one-out) and reports the 1-NN test accuracy of the selected
// candidate, returning the accuracy and the chosen measure. On a non-nil
// error the accuracy and measure are meaningless.
func SupervisedAccuracyCtx(ctx context.Context, g Grid, d *dataset.Dataset, n norm.Normalizer) (float64, measure.Measure, error) {
	nd := Normalize(d, n)
	chosen, _, _, err := TuneSupervisedCtx(ctx, g, nd.Train, nd.TrainLabels, nil)
	if err != nil {
		return 0, nil, err
	}
	acc, err := TestAccuracyCtx(ctx, chosen, nd, nil)
	return acc, chosen, err
}
