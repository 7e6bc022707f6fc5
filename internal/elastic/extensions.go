package elastic

import (
	"fmt"
	"math"

	"repro/internal/measure"
)

// This file implements the elastic-measure extensions Section 7 of the
// paper surveys but excludes from its core evaluation (DDTW, WDTW, CID) —
// provided here as the paper's suggested future-work territory.

// DDTW is Derivative DTW (Keogh & Pazzani / Górecki & Łuczak): DTW applied
// to the first-order derivative estimate of each series, aligning on shape
// slopes rather than raw values.
type DDTW struct {
	DeltaPercent int
}

// Name implements measure.Measure.
func (d DDTW) Name() string { return fmt.Sprintf("ddtw[d=%d]", d.DeltaPercent) }

// Symmetric implements measure.Symmetric.
func (d DDTW) Symmetric() bool { return true }

// Derivative returns the Keogh-Pazzani derivative estimate
// ((x_i - x_{i-1}) + (x_{i+1} - x_{i-1})/2) / 2, with replicated endpoints.
// Series shorter than 3 points return a zero slope vector.
func Derivative(x []float64) []float64 {
	m := len(x)
	out := make([]float64, m)
	if m < 3 {
		return out
	}
	for i := 1; i < m-1; i++ {
		out[i] = ((x[i] - x[i-1]) + (x[i+1]-x[i-1])/2) / 2
	}
	out[0] = out[1]
	out[m-1] = out[m-2]
	return out
}

// Distance implements measure.Measure.
func (d DDTW) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	return DTW{DeltaPercent: d.DeltaPercent}.Distance(Derivative(x), Derivative(y))
}

// DDBlend is the Górecki & Łuczak (2013) derivative blend: a convex
// combination of DTW on the raw series and DTW on the derivative
// estimates, dist = (1-Alpha)*DTW(x, y) + Alpha*DTW(x', y'). Alpha = 0 is
// plain DTW, Alpha = 1 is DDTW.
type DDBlend struct {
	DeltaPercent int
	Alpha        float64
}

// Name implements measure.Measure.
func (d DDBlend) Name() string {
	return fmt.Sprintf("ddblend[d=%d,a=%g]", d.DeltaPercent, d.Alpha)
}

// Symmetric implements measure.Symmetric.
func (d DDBlend) Symmetric() bool { return true }

// Distance implements measure.Measure.
func (d DDBlend) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	dtw := DTW{DeltaPercent: d.DeltaPercent}
	raw := dtw.Distance(x, y)
	deriv := dtw.Distance(Derivative(x), Derivative(y))
	return (1-d.Alpha)*raw + d.Alpha*deriv
}

// WDTW is Weighted DTW (Jeong, Jeong, Omitaomu 2011): a soft band that
// multiplies each cell cost by a logistic weight of the phase difference
// |i-j|, penalizing (but not forbidding) far-from-diagonal warping. G is
// the steepness of the logistic curve (0.05 is the authors' default) and
// WMax the maximum weight (1 by convention; 0 means 1).
type WDTW struct {
	G    float64
	WMax float64
}

// Name implements measure.Measure.
func (w WDTW) Name() string { return fmt.Sprintf("wdtw[g=%g]", w.G) }

// Symmetric implements measure.Symmetric: the weight depends only on
// |i-j|, which the transposition preserves.
func (w WDTW) Symmetric() bool { return true }

// Distance implements measure.Measure.
func (w WDTW) Distance(x, y []float64) float64 { return w.dp(x, y).Serial(math.Inf(1)) }

func (w WDTW) dp(x, y []float64) DP[wdtwRows] {
	measure.CheckSameLength(x, y)
	m := len(x)
	wmax := w.WMax
	if wmax == 0 {
		wmax = 1
	}
	// Precompute the weight of each phase difference.
	weights := make([]float64, m)
	mid := float64(m) / 2
	for a := range weights {
		weights[a] = wmax / (1 + math.Exp(-w.G*(float64(a)-mid)))
	}
	return DP[wdtwRows]{R: m, C: m, Rows: wdtwRows{weights: weights, x: x, y: y}}
}

type wdtwRows struct {
	InfBoundary
	weights, x, y []float64
}

// Row keeps its comparison chain rather than MinDTW: a negative WMax
// makes negative cells, outside the domain where bit patterns order as
// values.
func (r wdtwRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		diff := xi - yj
		phase := i - (j0 + k)
		if phase < 0 {
			phase = -phase
		}
		c := r.weights[phase] * diff * diff
		best := diag
		if u < best {
			best = u
		}
		if left < best {
			best = left
		}
		left = best + c
		out[k] = left
		diag = u
	}
}

// CID wraps any base measure with the Complexity-Invariant correction of
// Batista et al. (2014): the base distance is multiplied by
// max(CE(x), CE(y)) / min(CE(x), CE(y)), where CE is the complexity
// estimate sqrt(sum (x_{i+1} - x_i)^2), compensating for the bias of
// simple series matching everything.
type CID struct {
	Base measure.Measure
}

// Name implements measure.Measure.
func (c CID) Name() string { return "cid(" + c.Base.Name() + ")" }

// Symmetric implements measure.Symmetric: the correction factor is
// symmetric, so CID inherits the base measure's symmetry.
func (c CID) Symmetric() bool { return measure.IsSymmetric(c.Base) }

// ComplexityEstimate returns sqrt(sum of squared successive differences).
func ComplexityEstimate(x []float64) float64 {
	var s float64
	for i := 1; i < len(x); i++ {
		d := x[i] - x[i-1]
		s += d * d
	}
	return math.Sqrt(s)
}

// Distance implements measure.Measure.
func (c CID) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	base := c.Base.Distance(x, y)
	cx, cy := ComplexityEstimate(x), ComplexityEstimate(y)
	lo, hi := math.Min(cx, cy), math.Max(cx, cy)
	if lo == 0 {
		if hi == 0 {
			return base // both flat: no correction
		}
		return math.Inf(1) // flat vs complex: maximally dissimilar
	}
	return base * hi / lo
}
