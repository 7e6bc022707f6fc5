package elastic

import "repro/internal/measure"

// This file implements the UCR-suite-style lower-bound cascade for DTW —
// O(1) LB_Kim, then O(m) LB_Keogh against a precomputed Lemire envelope,
// then the reversed LB_Keogh — exposed through measure.LowerBounded. The
// search engine (internal/search) drives the cascade and pairs it with
// DTW's early-abandoning DistanceUpTo.

// dtwContext is DTW's measure.BoundContext: the Lemire min/max envelope of
// a series for the band's half-width, plus the monotonic-deque scratch
// needed to refill it without allocating.
type dtwContext struct {
	upper, lower []float64
	maxDq, minDq []int
}

// FillBound implements measure.LowerBounded. A context filled by any DTW
// band is retargeted to this band and refilled in place, allocation-free
// when its buffers already hold len(x); nil or another measure's context
// gets fresh buffers.
func (d DTW) FillBound(c measure.BoundContext, x []float64) measure.BoundContext {
	dc, ok := c.(*dtwContext)
	if !ok {
		dc = &dtwContext{}
	}
	m := len(x)
	if cap(dc.upper) < m {
		dc.upper = make([]float64, m)
		dc.lower = make([]float64, m)
		dc.maxDq = make([]int, m)
		dc.minDq = make([]int, m)
	}
	dc.upper = dc.upper[:m]
	dc.lower = dc.lower[:m]
	dc.maxDq = dc.maxDq[:m]
	dc.minDq = dc.minDq[:m]
	fillEnvelope(dc.upper, dc.lower, x, WindowSize(d.DeltaPercent, m), dc.maxDq, dc.minDq)
	return dc
}

// fillEnvelope computes the running min/max envelope of y over windows
// [i-w, i+w] (clamped) into upper/lower using Lemire's monotonic deques in
// O(m), independent of w. maxDq and minDq are caller-owned scratch of
// length >= len(y).
func fillEnvelope(upper, lower, y []float64, w int, maxDq, minDq []int) {
	m := len(y)
	maxH, maxT := 0, 0 // live deque contents are maxDq[maxH:maxT]
	minH, minT := 0, 0
	for j := 0; j < m+w; j++ {
		if j < m {
			for maxT > maxH && y[maxDq[maxT-1]] <= y[j] {
				maxT--
			}
			maxDq[maxT] = j
			maxT++
			for minT > minH && y[minDq[minT-1]] >= y[j] {
				minT--
			}
			minDq[minT] = j
			minT++
		}
		i := j - w // center whose full window has now been pushed
		if i < 0 {
			continue
		}
		for maxDq[maxH] < i-w {
			maxH++
		}
		for minDq[minH] < i-w {
			minH++
		}
		upper[i] = y[maxDq[maxH]]
		lower[i] = y[minDq[minH]]
	}
}

// envelope returns the upper and lower envelopes of y for half-width w in
// fresh buffers: fillEnvelope for one-off bounds.
func envelope(y []float64, w int) (upper, lower []float64) {
	m := len(y)
	upper, lower = make([]float64, m), make([]float64, m)
	fillEnvelope(upper, lower, y, w, make([]int, m), make([]int, m))
	return upper, lower
}

// LowerBound implements measure.LowerBounded with the classic cascade:
//
//  1. LB_Kim (first/last): every warping path pays the (1,1) and (m,m)
//     cells, O(1);
//  2. LB_Keogh of x against y's envelope, O(m) with early abandoning —
//     partial sums are themselves valid bounds;
//  3. the reversed LB_Keogh of y against x's envelope.
//
// The bounds are combined by max (their index sets overlap, so they cannot
// be summed). cx and cy must be contexts FillBound filled for x and y
// under this band. Like Distance, it panics when x and y differ in
// length.
func (d DTW) LowerBound(x, y []float64, cx, cy measure.BoundContext, cutoff float64) float64 {
	measure.CheckSameLength(x, y)
	m := len(x)
	if m == 0 {
		return 0
	}
	// LB_Kim: the corner cells lie on every path; for m == 1 they are the
	// same cell, paid once.
	c0 := x[0] - y[0]
	lb := c0 * c0
	if m > 1 {
		cl := x[m-1] - y[m-1]
		lb += cl * cl
	}
	if lb >= cutoff {
		return lb
	}
	ey := cy.(*dtwContext)
	if k := lbKeoghEnvelope(x, ey.upper, ey.lower, cutoff); k > lb {
		lb = k
	}
	if lb >= cutoff {
		return lb
	}
	ex := cx.(*dtwContext)
	if k := lbKeoghEnvelope(y, ex.upper, ex.lower, cutoff); k > lb {
		lb = k
	}
	return lb
}

// lbKeoghEnvelope accumulates the squared exceedance of x outside the
// [lower, upper] envelope, abandoning once the partial sum (itself a valid
// lower bound) reaches cutoff.
func lbKeoghEnvelope(x, upper, lower []float64, cutoff float64) float64 {
	var s float64
	for i, v := range x {
		if v > upper[i] {
			d := v - upper[i]
			s += d * d
		} else if v < lower[i] {
			d := lower[i] - v
			s += d * d
		}
		if s >= cutoff {
			return s
		}
	}
	return s
}
