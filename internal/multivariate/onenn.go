package multivariate

// 1-NN evaluation over multivariate panels: the multivariate mirror of
// internal/eval, built on the shared par dispatch core. Degenerate inputs
// follow the repo-wide convention: an empty reference set yields neighbor
// (-1, +Inf) — never a panic — and a prediction of -1 matches no label.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/par"
)

// Classify finds, for every test series, its nearest train series under m.
// It returns the best train indices and distances; an empty train set
// yields (-1, +Inf) for every query. NaN distances are treated as +Inf
// (never the nearest), ties keep the lowest train index, and measures
// implementing EarlyAbandoning are driven with the best-so-far cutoff.
// Queries run in parallel across par.Workers(len(test)) goroutines; a
// cancelled ctx returns its error with no partial results. A nil ctx never
// cancels.
func Classify(ctx context.Context, m Measure, train, test []Series) ([]int, []float64, error) {
	idx := make([]int, len(test))
	dists := make([]float64, len(test))
	ea, hasEA := m.(EarlyAbandoning)
	err := par.ForCtx(ctx, len(test), par.Workers(len(test)), func(i int) {
		q := test[i]
		best, bestDist := -1, math.Inf(1)
		for j, r := range train {
			var d float64
			if hasEA && best >= 0 {
				d = ea.DistanceUpTo(q, r, bestDist)
			} else {
				d = m.Distance(q, r)
			}
			if math.IsNaN(d) {
				d = math.Inf(1)
			}
			if best == -1 || d < bestDist {
				best, bestDist = j, d
			}
		}
		idx[i], dists[i] = best, bestDist
	})
	if err != nil {
		return nil, nil, err
	}
	return idx, dists, nil
}

// AccuracyCtx runs 1-NN classification of test against the labeled train
// set and returns the fraction of test series whose nearest neighbor
// carries the correct label. An empty test set scores 0; an empty train
// set predicts -1 everywhere (also 0). It panics when a label slice
// disagrees in length with its series slice — that is a programmer error,
// not a data condition.
func AccuracyCtx(ctx context.Context, m Measure, train []Series, trainLabels []int, test []Series, testLabels []int) (float64, error) {
	if len(train) != len(trainLabels) {
		panic(fmt.Sprintf("multivariate: %d train series, %d train labels", len(train), len(trainLabels)))
	}
	if len(test) != len(testLabels) {
		panic(fmt.Sprintf("multivariate: %d test series, %d test labels", len(test), len(testLabels)))
	}
	if len(test) == 0 {
		return 0, nil
	}
	idx, _, err := Classify(ctx, m, train, test)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, best := range idx {
		if best >= 0 && trainLabels[best] == testLabels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(test)), nil
}
