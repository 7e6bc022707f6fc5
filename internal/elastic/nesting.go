package elastic

import "repro/internal/measure"

// This file declares the band/threshold nesting of the elastic grids
// (measure.NestedBounds) and DTW's envelope-buffer sharing
// (measure.BoundSharing), both consumed by the grid tuning engine in
// internal/search.
//
// Nesting proofs (sketched; DESIGN.md has the full argument):
//
//   - DTW: WindowSize is monotone nondecreasing in DeltaPercent for every
//     length, and widening the Sakoe-Chiba band only adds warping paths, so
//     the DP minimum can only decrease. The floating-point DP preserves
//     this exactly: by induction over cells, every wide-band cell value is
//     <= the narrow-band value (out-of-band cells count as +Inf), because
//     min and the final c*c + best addition are monotone in their operands.
//   - LCSS: a wider band or a larger Epsilon only adds admissible matches,
//     so the subsequence length L is nondecreasing and the distance
//     1 - L/m nonincreasing. Cell values are small integers, exact in
//     float64, and max/+1 are monotone.
//   - EDR: a larger Epsilon turns substitution costs from 1 to 0 pointwise,
//     and the min/+ DP is monotone in its cost function, so the edit count
//     is nonincreasing in Epsilon (integer-valued, exact in float64).
//
// All three claims require finite inputs: a NaN entering the DP can hide a
// cheaper path from the widened band (NaN comparisons are false), which is
// why the engine treats DominatedBy as advisory and repairs any row whose
// warm-start bound turns out unachievable.

// DominatedBy implements measure.NestedBounds: a DTW with a narrower (or
// equal) band upper-bounds this one.
func (d DTW) DominatedBy(other measure.Measure) bool {
	o, ok := other.(DTW)
	return ok && o.DeltaPercent <= d.DeltaPercent
}

// DominatedBy implements measure.NestedBounds: an LCSS with a narrower (or
// equal) band and a smaller (or equal) threshold upper-bounds this one.
func (l LCSS) DominatedBy(other measure.Measure) bool {
	o, ok := other.(LCSS)
	return ok && o.DeltaPercent <= l.DeltaPercent && o.Epsilon <= l.Epsilon
}

// DominatedBy implements measure.NestedBounds: an EDR with a smaller (or
// equal) threshold upper-bounds this one.
func (e EDR) DominatedBy(other measure.Measure) bool {
	o, ok := other.(EDR)
	return ok && o.Epsilon <= e.Epsilon
}

// SharesBounds implements measure.BoundSharing: every DTW band uses the
// same context shape (a Lemire envelope plus deque scratch), so contexts
// can be rebound across the band grid.
func (d DTW) SharesBounds(other measure.Measure) bool {
	_, ok := other.(DTW)
	return ok
}

// RebindBoundContext implements measure.BoundSharing: it retargets a
// context built by another DTW band to this band and refills the envelope,
// reusing the existing buffers (allocation-free when lengths match).
func (d DTW) RebindBoundContext(c measure.BoundContext, x []float64) measure.BoundContext {
	dc := c.(*dtwContext)
	dc.deltaPercent = d.DeltaPercent
	dc.grow(len(x))
	dc.Fill(x)
	return dc
}
