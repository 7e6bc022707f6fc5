package stats

import (
	"fmt"
	"math"
)

// WilcoxonResult holds the outcome of a two-sided Wilcoxon signed-rank test
// between two paired samples (e.g., the per-dataset accuracies of two
// distance measures).
type WilcoxonResult struct {
	N        int     // pairs with non-zero difference
	WPlus    float64 // sum of ranks of positive differences (x > y)
	WMinus   float64 // sum of ranks of negative differences
	Z        float64 // normal-approximation statistic (0 when N == 0)
	PValue   float64 // two-sided p-value
	Wins     int     // datasets where x > y
	Ties     int     // datasets where x == y
	Losses   int     // datasets where x < y
	Dropped  int     // pairs excluded because either value is NaN
	MeanDiff float64 // mean of x - y over the retained pairs
}

// Wilcoxon performs the two-sided Wilcoxon signed-rank test on the paired
// samples x and y, following the convention of Demšar (2006): zero
// differences are dropped and ties among the absolute differences receive
// midranks. Pairs where either value is NaN carry no rank information and
// are excluded entirely (counted in Dropped). For n <= 25 non-zero
// differences the p-value comes from the exact permutation distribution of
// the rank sum; larger samples use the normal approximation with tie
// correction. It panics when the samples have different lengths.
func Wilcoxon(x, y []float64) WilcoxonResult {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: Wilcoxon sample length mismatch %d vs %d", len(x), len(y)))
	}
	var res WilcoxonResult
	diffs := make([]float64, 0, len(x))
	var sumDiff float64
	kept := 0
	for i := range x {
		d := x[i] - y[i]
		if math.IsNaN(d) {
			// A NaN would previously slip past the d != 0 filter, get
			// ranked, and poison WMinus and MeanDiff with NaN.
			res.Dropped++
			continue
		}
		kept++
		sumDiff += d
		switch {
		case d > 0:
			res.Wins++
		case d < 0:
			res.Losses++
		default:
			res.Ties++
		}
		if d != 0 {
			diffs = append(diffs, d)
		}
	}
	if kept > 0 {
		res.MeanDiff = sumDiff / float64(kept)
	}
	res.N = len(diffs)
	if res.N == 0 {
		res.PValue = 1
		return res
	}
	abs := make([]float64, res.N)
	for i, d := range diffs {
		abs[i] = math.Abs(d)
	}
	ranks := Ranks(abs, 1e-12)
	for i, d := range diffs {
		if d > 0 {
			res.WPlus += ranks[i]
		} else {
			res.WMinus += ranks[i]
		}
	}
	n := float64(res.N)
	w := math.Min(res.WPlus, res.WMinus)
	if res.N <= exactWilcoxonThreshold {
		// Small samples: use the exact permutation distribution instead of
		// the normal approximation.
		res.PValue = exactWilcoxonP(ranks, w)
		res.Z = 0
		return res
	}
	mean := n * (n + 1) / 4
	variance := n * (n + 1) * (2*n + 1) / 24
	// Tie correction: subtract sum(t^3 - t)/48 over tie groups.
	variance -= tieCorrection(abs) / 48
	if variance <= 0 {
		// All differences identical in magnitude and sign structure is
		// degenerate; fall back to a decisive p-value based on sign counts.
		if res.WPlus == 0 || res.WMinus == 0 {
			res.PValue = math.Pow(0.5, n-1)
		} else {
			res.PValue = 1
		}
		return res
	}
	// Continuity correction of 0.5 toward the mean.
	res.Z = (w - mean + 0.5) / math.Sqrt(variance)
	p := 2 * NormalCDF(res.Z)
	if p > 1 {
		p = 1
	}
	res.PValue = p
	return res
}

// tieCorrection returns sum over tie groups of (t^3 - t), where t is the
// group size, for the tie-corrected variance of rank statistics.
func tieCorrection(abs []float64) float64 {
	counts := map[float64]int{}
	for _, v := range abs {
		counts[v]++
	}
	var c float64
	for _, t := range counts {
		if t > 1 {
			tf := float64(t)
			c += tf*tf*tf - tf
		}
	}
	return c
}
