package lockstep

import (
	"math"

	"repro/internal/measure"
)

// This file implements the batched panel engine behind measure.
// PanelEvaluator for the lock-step measures whose accumulators fuse well:
// Euclidean, SquaredEuclidean, Manhattan, Lorentzian, Chebyshev, and
// Cosine. Candidates are processed four at a time with one accumulator per
// candidate, the candidate slices re-sliced to the query length up front so
// the inner loops run without bounds checks, and the query element loaded
// once per index and shared by all four lanes.
//
// Exactness: the per-candidate accumulation order is exactly the scalar
// loop's (index 0 to m-1, one running sum per candidate; Lorentzian's one
// product per block, over the same blocks) — lane fusion interleaves
// independent accumulators but never reassociates within one — so panel
// results are bitwise-identical to per-pair Distance calls.
//
// Early abandoning: the UpTo kernels test every candidate's running value
// against the cutoff once per panelStride elements and abandon a 4-lane
// group only when ALL four lanes have reached the cutoff. An abandoned
// lane's output is its partial accumulation: at least the cutoff (the test
// just passed) and at most the final distance (the accumulators are
// monotone non-decreasing), exactly the EarlyAbandoning contract. A +Inf
// cutoff abandons nothing (see abandonAt), so a partial value that
// overflows to +Inf still reads a later NaN, as Distance does. Cosine's
// accumulators are not monotone, so it always computes exact values and
// ignores the cutoff.

// panelStride is the number of elements accumulated between cutoff checks:
// frequent enough to save work on long series, rare enough that the
// comparisons (and Euclidean's square roots) vanish in the loop cost.
const panelStride = 64

// Lorentzian sums ln(1+|d|) over blocks of lorentzBlock points as the log
// of the block's product of (1+|d|) factors: one math.Log per block
// instead of one math.Log1p per point. The blocks tile panelStride, so
// the cutoff check still falls after every 64 points. A block whose
// product is below lorentzMin, or not finite, adds its terms one by one
// with math.Log1p instead. Every other block has 2*lorentzBlock-1
// roundings (each 1+|d| and each product) of relative size 2^-53 each,
// which move its log by at most 31*2^-53 absolute, or
// 31*2^-53/ln(1+2^-6) ≈ 2.2e-13 relative to its sum; the terms are
// non-negative, so the distance keeps that bound.
const (
	lorentzBlock = 16
	lorentzMin   = 1 + 1.0/64
)

// Panel is a lock-step measure with a batched panel engine. It implements
// measure.Measure, measure.EarlyAbandoning, and measure.PanelEvaluator;
// the six convertible constructors in this package (Euclidean, Manhattan,
// Chebyshev, Lorentzian, SquaredEuclidean, Cosine) return it.
type Panel struct {
	name      string
	dist      func(x, y []float64) float64
	distUpTo  func(x, y []float64, cutoff float64) float64
	panelUpTo func(q []float64, panel [][]float64, cutoff float64, out []float64)
}

// Name implements measure.Measure.
func (p Panel) Name() string { return p.name }

// Distance implements measure.Measure.
func (p Panel) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	return p.dist(x, y)
}

// DistanceUpTo implements measure.EarlyAbandoning; see the package comment
// on panel.go for the abandonment scheme.
func (p Panel) DistanceUpTo(x, y []float64, cutoff float64) float64 {
	measure.CheckSameLength(x, y)
	return p.distUpTo(x, y, cutoff)
}

// panelAccepts reports whether every candidate matches the query length
// (the decline condition of the PanelEvaluator contract).
func panelAccepts(q []float64, panel [][]float64) bool {
	for _, c := range panel {
		if len(c) != len(q) {
			return false
		}
	}
	return true
}

// PanelDistancesUpTo implements measure.PanelEvaluator.
func (p Panel) PanelDistancesUpTo(q []float64, panel [][]float64, cutoff float64, out []float64) bool {
	if !panelAccepts(q, panel) {
		return false
	}
	p.panelUpTo(q, panel, cutoff, out)
	return true
}

//
// ---- scalar kernels (shared by Distance and DistanceUpTo) ----
//

func ident(v float64) float64 { return v }

// abandonAt returns the value the stride checks compare partial results
// against with >=. A +Inf cutoff abandons nothing, so it becomes NaN, which
// no comparison reaches: otherwise a partial value that overflows to +Inf
// would abandon at +Inf >= +Inf before a later NaN is read, and
// DistanceUpTo(+Inf) and PanelDistancesUpTo(+Inf) would return +Inf where
// Distance returns NaN.
func abandonAt(cutoff float64) float64 {
	if cutoff > math.MaxFloat64 {
		return math.NaN()
	}
	return cutoff
}

// sumSqUpTo accumulates sum (x-y)^2 with stride cutoff checks on
// finish(partial); finish is Sqrt for Euclidean and identity for
// SquaredEuclidean, so the check compares in the measure's own units.
func sumSqUpTo(x, y []float64, cutoff float64, finish func(float64) float64) float64 {
	cutoff = abandonAt(cutoff)
	var s float64
	m := len(x)
	i := 0
	for ; i+panelStride <= m; i += panelStride {
		for e := i; e < i+panelStride; e++ {
			d := x[e] - y[e]
			s += d * d
		}
		if v := finish(s); v >= cutoff {
			return v
		}
	}
	for ; i < m; i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return finish(s)
}

func sumAbsUpTo(x, y []float64, cutoff float64) float64 {
	cutoff = abandonAt(cutoff)
	var s float64
	m := len(x)
	i := 0
	for ; i+panelStride <= m; i += panelStride {
		for e := i; e < i+panelStride; e++ {
			s += math.Abs(x[e] - y[e])
		}
		if s >= cutoff {
			return s
		}
	}
	for ; i < m; i++ {
		s += math.Abs(x[i] - y[i])
	}
	return s
}

// sumLog1pAbsUpTo is Lorentzian's kernel: blocks of lorentzBlock points
// tile each stride, the tail takes whole blocks and one shorter last one.
func sumLog1pAbsUpTo(x, y []float64, cutoff float64) float64 {
	cutoff = abandonAt(cutoff)
	var s float64
	m := len(x)
	i := 0
	for ; i+panelStride <= m; i += panelStride {
		for b := i; b < i+panelStride; b += lorentzBlock {
			s = addLog1pAbsBlock(s, x[b:b+lorentzBlock], y[b:b+lorentzBlock])
		}
		if s >= cutoff {
			return s
		}
	}
	for ; i < m; i += lorentzBlock {
		j := min(i+lorentzBlock, m)
		s = addLog1pAbsBlock(s, x[i:j], y[i:j])
	}
	return s
}

// addLog1pAbsBlock adds the Lorentzian terms of one block to s.
func addLog1pAbsBlock(s float64, x, y []float64) float64 {
	y = y[:len(x)]
	p := 1.0
	for e := range x {
		p *= 1 + math.Abs(x[e]-y[e])
	}
	return addLogBlock(s, p, x, y)
}

// addLogBlock adds one block of Lorentzian terms to the running sum s,
// given the block's product p of (1+|x_e-y_e|) factors: ln p when p is
// finite and at least lorentzMin, else the terms one by one with Log1p.
// A NaN product fails both comparisons and falls back too.
func addLogBlock(s, p float64, x, y []float64) float64 {
	if p >= lorentzMin && p <= math.MaxFloat64 {
		return s + math.Log(p)
	}
	y = y[:len(x)]
	for e := range x {
		s += math.Log1p(math.Abs(x[e] - y[e]))
	}
	return s
}

func maxAbsUpTo(x, y []float64, cutoff float64) float64 {
	cutoff = abandonAt(cutoff)
	var s float64
	m := len(x)
	i := 0
	for ; i+panelStride <= m; i += panelStride {
		for e := i; e < i+panelStride; e++ {
			if d := math.Abs(x[e] - y[e]); d > s {
				s = d
			}
		}
		if s >= cutoff {
			return s
		}
	}
	for ; i < m; i++ {
		if d := math.Abs(x[i] - y[i]); d > s {
			s = d
		}
	}
	return s
}

func cosineDist(x, y []float64) float64 {
	var xy, xx, yy float64
	for i := range x {
		xy += x[i] * y[i]
		xx += x[i] * x[i]
		yy += y[i] * y[i]
	}
	den := math.Sqrt(xx) * math.Sqrt(yy)
	return 1 - measure.Div(xy, den)
}

//
// ---- panel kernels ----
//

// panelSumSqUpTo is the fused 4-lane sum-of-squares kernel (Euclidean and
// SquaredEuclidean). At cutoff = +Inf the checks never fire (see
// abandonAt) and the accumulation is bitwise the scalar Distance's.
func panelSumSqUpTo(q []float64, panel [][]float64, cutoff float64, out []float64, finish func(float64) float64) {
	cutoff = abandonAt(cutoff)
	m := len(q)
	k := 0
	for ; k+4 <= len(panel); k += 4 {
		c0, c1, c2, c3 := panel[k][:m], panel[k+1][:m], panel[k+2][:m], panel[k+3][:m]
		var a0, a1, a2, a3 float64
		i := 0
		for ; i+panelStride <= m; i += panelStride {
			for e := i; e < i+panelStride; e++ {
				qv := q[e]
				d0 := qv - c0[e]
				a0 += d0 * d0
				d1 := qv - c1[e]
				a1 += d1 * d1
				d2 := qv - c2[e]
				a2 += d2 * d2
				d3 := qv - c3[e]
				a3 += d3 * d3
			}
			if finish(a0) >= cutoff && finish(a1) >= cutoff && finish(a2) >= cutoff && finish(a3) >= cutoff {
				break
			}
		}
		if i+panelStride > m {
			for ; i < m; i++ {
				qv := q[i]
				d0 := qv - c0[i]
				a0 += d0 * d0
				d1 := qv - c1[i]
				a1 += d1 * d1
				d2 := qv - c2[i]
				a2 += d2 * d2
				d3 := qv - c3[i]
				a3 += d3 * d3
			}
		}
		out[k], out[k+1], out[k+2], out[k+3] = finish(a0), finish(a1), finish(a2), finish(a3)
	}
	for ; k < len(panel); k++ {
		out[k] = sumSqUpTo(q, panel[k], cutoff, finish)
	}
}

// panelSumAbsUpTo is the fused 4-lane L1 kernel (Manhattan).
func panelSumAbsUpTo(q []float64, panel [][]float64, cutoff float64, out []float64) {
	cutoff = abandonAt(cutoff)
	m := len(q)
	k := 0
	for ; k+4 <= len(panel); k += 4 {
		c0, c1, c2, c3 := panel[k][:m], panel[k+1][:m], panel[k+2][:m], panel[k+3][:m]
		var a0, a1, a2, a3 float64
		i := 0
		for ; i+panelStride <= m; i += panelStride {
			for e := i; e < i+panelStride; e++ {
				qv := q[e]
				a0 += math.Abs(qv - c0[e])
				a1 += math.Abs(qv - c1[e])
				a2 += math.Abs(qv - c2[e])
				a3 += math.Abs(qv - c3[e])
			}
			if a0 >= cutoff && a1 >= cutoff && a2 >= cutoff && a3 >= cutoff {
				break
			}
		}
		if i+panelStride > m {
			for ; i < m; i++ {
				qv := q[i]
				a0 += math.Abs(qv - c0[i])
				a1 += math.Abs(qv - c1[i])
				a2 += math.Abs(qv - c2[i])
				a3 += math.Abs(qv - c3[i])
			}
		}
		out[k], out[k+1], out[k+2], out[k+3] = a0, a1, a2, a3
	}
	for ; k < len(panel); k++ {
		out[k] = sumAbsUpTo(q, panel[k], cutoff)
	}
}

// panelSumLog1pAbsUpTo is the fused 4-lane Lorentzian kernel. It walks
// the blocks of sumLog1pAbsUpTo, one product per lane per block, so every
// lane's value is bitwise the scalar kernel's.
func panelSumLog1pAbsUpTo(q []float64, panel [][]float64, cutoff float64, out []float64) {
	cutoff = abandonAt(cutoff)
	m := len(q)
	k := 0
	for ; k+4 <= len(panel); k += 4 {
		c0, c1, c2, c3 := panel[k][:m], panel[k+1][:m], panel[k+2][:m], panel[k+3][:m]
		var a0, a1, a2, a3 float64
		i := 0
		for ; i+panelStride <= m; i += panelStride {
			for b := i; b < i+panelStride; b += lorentzBlock {
				a0, a1, a2, a3 = addLogBlocks(a0, a1, a2, a3, q, c0, c1, c2, c3, b, b+lorentzBlock)
			}
			if a0 >= cutoff && a1 >= cutoff && a2 >= cutoff && a3 >= cutoff {
				break
			}
		}
		if i+panelStride > m {
			for ; i < m; i += lorentzBlock {
				a0, a1, a2, a3 = addLogBlocks(a0, a1, a2, a3, q, c0, c1, c2, c3, i, min(i+lorentzBlock, m))
			}
		}
		out[k], out[k+1], out[k+2], out[k+3] = a0, a1, a2, a3
	}
	for ; k < len(panel); k++ {
		out[k] = sumLog1pAbsUpTo(q, panel[k], cutoff)
	}
}

// addLogBlocks adds block [b, j) of four candidates to their running sums:
// the four products are fused over the shared query element, then each
// lane takes addLogBlock's log-or-fallback step.
func addLogBlocks(a0, a1, a2, a3 float64, q, c0, c1, c2, c3 []float64, b, j int) (float64, float64, float64, float64) {
	q = q[b:j]
	n := len(q)
	c0, c1, c2, c3 = c0[b:j][:n], c1[b:j][:n], c2[b:j][:n], c3[b:j][:n]
	p0, p1, p2, p3 := 1.0, 1.0, 1.0, 1.0
	for e, qv := range q {
		p0 *= 1 + math.Abs(qv-c0[e])
		p1 *= 1 + math.Abs(qv-c1[e])
		p2 *= 1 + math.Abs(qv-c2[e])
		p3 *= 1 + math.Abs(qv-c3[e])
	}
	return addLogBlock(a0, p0, q, c0), addLogBlock(a1, p1, q, c1),
		addLogBlock(a2, p2, q, c2), addLogBlock(a3, p3, q, c3)
}

// panelMaxAbsUpTo is the fused 4-lane L_inf kernel (Chebyshev).
func panelMaxAbsUpTo(q []float64, panel [][]float64, cutoff float64, out []float64) {
	cutoff = abandonAt(cutoff)
	m := len(q)
	k := 0
	for ; k+4 <= len(panel); k += 4 {
		c0, c1, c2, c3 := panel[k][:m], panel[k+1][:m], panel[k+2][:m], panel[k+3][:m]
		var a0, a1, a2, a3 float64
		i := 0
		for ; i+panelStride <= m; i += panelStride {
			for e := i; e < i+panelStride; e++ {
				qv := q[e]
				if d := math.Abs(qv - c0[e]); d > a0 {
					a0 = d
				}
				if d := math.Abs(qv - c1[e]); d > a1 {
					a1 = d
				}
				if d := math.Abs(qv - c2[e]); d > a2 {
					a2 = d
				}
				if d := math.Abs(qv - c3[e]); d > a3 {
					a3 = d
				}
			}
			if a0 >= cutoff && a1 >= cutoff && a2 >= cutoff && a3 >= cutoff {
				break
			}
		}
		if i+panelStride > m {
			for ; i < m; i++ {
				qv := q[i]
				if d := math.Abs(qv - c0[i]); d > a0 {
					a0 = d
				}
				if d := math.Abs(qv - c1[i]); d > a1 {
					a1 = d
				}
				if d := math.Abs(qv - c2[i]); d > a2 {
					a2 = d
				}
				if d := math.Abs(qv - c3[i]); d > a3 {
					a3 = d
				}
			}
		}
		out[k], out[k+1], out[k+2], out[k+3] = a0, a1, a2, a3
	}
	for ; k < len(panel); k++ {
		out[k] = maxAbsUpTo(q, panel[k], cutoff)
	}
}

// panelCosine is the fused 4-lane cosine kernel. The query's self inner
// product is accumulated once (same index order as the scalar loop, so the
// value is bitwise-identical) and shared by every candidate. Cosine's
// accumulators are not monotone in the number of terms, so there is no
// UpTo variant: the cutoff is ignored and exact values are returned, which
// trivially satisfies the PanelDistancesUpTo contract.
func panelCosine(q []float64, panel [][]float64, _ float64, out []float64) {
	m := len(q)
	var xx float64
	for _, v := range q {
		xx += v * v
	}
	sqxx := math.Sqrt(xx)
	k := 0
	for ; k+4 <= len(panel); k += 4 {
		c0, c1, c2, c3 := panel[k][:m], panel[k+1][:m], panel[k+2][:m], panel[k+3][:m]
		var xy0, yy0, xy1, yy1, xy2, yy2, xy3, yy3 float64
		for i, qv := range q {
			v0 := c0[i]
			xy0 += qv * v0
			yy0 += v0 * v0
			v1 := c1[i]
			xy1 += qv * v1
			yy1 += v1 * v1
			v2 := c2[i]
			xy2 += qv * v2
			yy2 += v2 * v2
			v3 := c3[i]
			xy3 += qv * v3
			yy3 += v3 * v3
		}
		out[k] = 1 - measure.Div(xy0, sqxx*math.Sqrt(yy0))
		out[k+1] = 1 - measure.Div(xy1, sqxx*math.Sqrt(yy1))
		out[k+2] = 1 - measure.Div(xy2, sqxx*math.Sqrt(yy2))
		out[k+3] = 1 - measure.Div(xy3, sqxx*math.Sqrt(yy3))
	}
	for ; k < len(panel); k++ {
		out[k] = cosineDist(q, panel[k])
	}
}
