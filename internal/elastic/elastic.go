// Package elastic implements the 7 elastic distance measures of Section 7
// of the paper: DTW with the Sakoe-Chiba band, LCSS, EDR, ERP, MSM, TWE,
// and Swale. Elastic measures create a non-linear mapping between series by
// dynamic programming over the m-by-m cost matrix, allowing regions to
// stretch or shrink; all run in O(m^2) time (O(w*m) with a band) and O(m)
// memory via two-row DP. The package also provides the LB_Keogh lower
// bound used by the DTW pruning ablation.
package elastic

import (
	"fmt"
	"math"

	"repro/internal/measure"
)

// WindowSize converts a Sakoe-Chiba window expressed as a percentage of the
// series length (the paper's convention: delta = 10 means 10% of m;
// delta >= 100 means an unconstrained band) into an absolute band width of
// at least 1.
func WindowSize(deltaPercent int, m int) int {
	if deltaPercent >= 100 {
		return m
	}
	return max(deltaPercent*m/100, 1)
}

// DTW is Dynamic Time Warping with a Sakoe-Chiba band. DeltaPercent is the
// band half-width as a percentage of the series length (Table 4's grid);
// 100 disables the constraint. The point cost is the squared difference and
// the accumulated value is returned without a final square root, following
// the UCR-suite convention (1-NN ordering is unaffected).
type DTW struct {
	DeltaPercent int
}

// Name implements measure.Measure.
func (d DTW) Name() string { return fmt.Sprintf("dtw[d=%d]", d.DeltaPercent) }

// Symmetric implements measure.Symmetric: the transposed DP combines the
// same operands with the same operations, so DTW(x, y) == DTW(y, x)
// bitwise.
func (d DTW) Symmetric() bool { return true }

func (d DTW) dp(x, y []float64) DP[dtwRows] {
	measure.CheckSameLength(x, y)
	m := len(x)
	return DP[dtwRows]{R: m, C: m, W: WindowSize(d.DeltaPercent, m), OOB: math.Inf(1), Prune: true, Rows: dtwRows{x: x, y: y}}
}

// Distance implements measure.Measure.
func (d DTW) Distance(x, y []float64) float64 { return d.dp(x, y).distance() }

// DistanceUpTo implements measure.EarlyAbandoning: banded DTW on the serial
// path under the driver's cell pruning (DP.Serial), abandoned with cutoff
// once a row has no cell below it. With cutoff = +Inf this is the serial
// Distance.
func (d DTW) DistanceUpTo(x, y []float64, cutoff float64) float64 {
	return d.dp(x, y).Serial(cutoff)
}

// DistanceWavefront computes DTW on the blocked wavefront path (see
// DP.Wavefront); Distance takes it for long series on multi-core machines,
// and this method pins it for tests and benchmarks.
func (d DTW) DistanceWavefront(x, y []float64) float64 {
	return d.dp(x, y).Wavefront()
}

// UnbandedDTW is DTW without a band between series of any lengths, 0 when
// either is empty. Run with a NaN cutoff, it prunes no cell, so on
// non-finite input it evaluates cells that Distance skips. The DTW-based
// embeddings align with it.
func UnbandedDTW(x, y []float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	return DP[dtwRows]{R: len(x), C: len(y), Rows: dtwRows{x: x, y: y}}.Serial(math.NaN())
}

type dtwRows struct {
	InfBoundary
	x, y []float64
}

// Row carries the diagonal and the deletion (the cell it just wrote) in
// registers, so no cell waits on reloading the value its predecessor
// stored, and reads rows re-sliced to the segment's length, so no cell
// pays a bounds check.
func (r dtwRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		c := xi - yj
		u := up[k]
		left = c*c + MinDTW(diag, u, left)
		out[k] = left
		diag = u
	}
}

// MinDTW returns the least of a DTW cell's diagonal, insertion and
// deletion predecessors: bitwise the comparison chain
//
//	best := diag
//	if ins < best { best = ins }
//	if del < best { best = del }
//
// on DTW's cell domain, which is +0, positive numbers, +Inf and NaNs of
// either sign (every cost is a square or a sum of squares, the boundary
// holds 0 and +Inf, and no cell is -0). There the float64 bit patterns
// order as unsigned integers exactly as the values do, with every NaN
// above every number, so the minimum is taken on the patterns, which the
// compiler selects with conditional moves where the float comparisons are
// branches the predictor misses. The chain keeps a NaN diagonal (a NaN
// compares false), which the patterns would not; that one case takes a
// rarely taken branch. Outside the domain (-0 or negative numbers) the
// result differs from the chain, so WDTW, whose weights may be negative,
// keeps its chain.
func MinDTW(diag, ins, del float64) float64 {
	if diag != diag {
		return diag
	}
	return math.Float64frombits(min(math.Float64bits(diag), math.Float64bits(ins), math.Float64bits(del)))
}

// LBKeogh returns the LB_Keogh lower bound of DTW(x, y) for a band of
// absolute half-width w: the squared exceedance of x outside the upper and
// lower envelopes of y. It never exceeds the corresponding DTW value. The
// envelope is built in O(m) with Lemire's streaming min/max; callers that
// evaluate many bounds against the same series should use the search
// engine, which prepares each envelope once, instead of rebuilding it per
// call.
func LBKeogh(x, y []float64, w int) float64 {
	measure.CheckSameLength(x, y)
	upper, lower := envelope(y, w)
	return lbKeoghEnvelope(x, upper, lower, math.Inf(1))
}

// LCSS is the Longest Common Subsequence distance: points match when they
// differ by at most Epsilon and their indexes by at most the band; the
// distance is 1 - L/min(m, n) where L is the longest common subsequence.
type LCSS struct {
	DeltaPercent int     // band as a percentage of the length (Table 4: {5, 10})
	Epsilon      float64 // matching threshold
}

// Name implements measure.Measure.
func (l LCSS) Name() string { return fmt.Sprintf("lcss[d=%d,e=%g]", l.DeltaPercent, l.Epsilon) }

// Symmetric implements measure.Symmetric.
func (l LCSS) Symmetric() bool { return true }

func (l LCSS) dp(x, y []float64) DP[lcssRows] {
	measure.CheckSameLength(x, y)
	m := len(x)
	return DP[lcssRows]{R: m, C: m, W: WindowSize(l.DeltaPercent, m), Rows: lcssRows{l, x, y}}
}

// Distance implements measure.Measure.
func (l LCSS) Distance(x, y []float64) float64 {
	p := l.dp(x, y)
	if p.R == 0 {
		return 0
	}
	return 1 - p.distance()/float64(p.R)
}

// DistanceWavefront computes LCSS on the blocked wavefront path.
func (l LCSS) DistanceWavefront(x, y []float64) float64 {
	p := l.dp(x, y)
	if p.R == 0 {
		return 0
	}
	return 1 - p.Wavefront()/float64(p.R)
}

// lcssRows counts the longest common subsequence; out-of-band cells (OOB
// 0) count no matches.
type lcssRows struct {
	LCSS
	x, y []float64
}

func (r lcssRows) Boundary(top, left []float64) float64 {
	fill(top, 0)
	fill(left, 0)
	return 0
}

func (r lcssRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		if math.Abs(xi-yj) <= r.Epsilon {
			left = diag + 1
		} else {
			left = max(u, left)
		}
		out[k] = left
		diag = u
	}
}

// EDR is the Edit Distance on Real sequence: a unit-cost edit distance
// where two points match (cost 0) when they differ by at most Epsilon, and
// every gap or mismatch costs 1. The raw edit count is returned (series are
// equal-length after preprocessing, so normalization is a constant factor).
type EDR struct {
	Epsilon float64
}

// Name implements measure.Measure.
func (e EDR) Name() string { return fmt.Sprintf("edr[e=%g]", e.Epsilon) }

// Symmetric implements measure.Symmetric.
func (e EDR) Symmetric() bool { return true }

func (e EDR) dp(x, y []float64) DP[edrRows] {
	measure.CheckSameLength(x, y)
	return DP[edrRows]{R: len(x), C: len(x), Rows: edrRows{e, x, y}}
}

// Distance implements measure.Measure.
func (e EDR) Distance(x, y []float64) float64 { return e.dp(x, y).distance() }

// DistanceWavefront computes EDR on the blocked wavefront path.
func (e EDR) DistanceWavefront(x, y []float64) float64 {
	return e.dp(x, y).Wavefront()
}

type edrRows struct {
	EDR
	x, y []float64
}

// Boundary: deleting a prefix costs its length.
func (r edrRows) Boundary(top, left []float64) float64 {
	for t := range top {
		top[t] = float64(t + 1)
	}
	copy(left, top)
	return 0
}

func (r edrRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		subCost := 1.0
		if math.Abs(xi-yj) <= r.Epsilon {
			subCost = 0
		}
		best := diag + subCost
		if v := u + 1; v < best {
			best = v
		}
		if v := left + 1; v < best {
			best = v
		}
		left = best
		out[k] = left
		diag = u
	}
}

// ERP is the Edit distance with Real Penalty: gaps are penalized by the
// distance to a constant gap value g (0 here, the standard choice for
// z-normalized data), which makes ERP a metric and, with g fixed,
// parameter-free — the only such elastic measure in Table 5.
type ERP struct {
	G float64
}

// Name implements measure.Measure.
func (e ERP) Name() string { return "erp" }

// Symmetric implements measure.Symmetric.
func (e ERP) Symmetric() bool { return true }

// dp prunes unless G is NaN: every gap and match cost is an absolute
// value.
func (e ERP) dp(x, y []float64) DP[erpRows] {
	measure.CheckSameLength(x, y)
	return DP[erpRows]{R: len(x), C: len(x), OOB: math.Inf(1), Prune: !math.IsNaN(e.G), Rows: erpRows{e, x, y}}
}

// Distance implements measure.Measure.
func (e ERP) Distance(x, y []float64) float64 { return e.dp(x, y).distance() }

// DistanceUpTo implements measure.EarlyAbandoning through the driver's
// cell pruning (DP.Serial); a NaN G runs the full DP.
func (e ERP) DistanceUpTo(x, y []float64, cutoff float64) float64 {
	return e.dp(x, y).Serial(cutoff)
}

// DistanceWavefront computes ERP on the blocked wavefront path.
func (e ERP) DistanceWavefront(x, y []float64) float64 {
	return e.dp(x, y).Wavefront()
}

type erpRows struct {
	ERP
	x, y []float64
}

// Boundary: deleting a prefix costs its running gap penalty.
func (r erpRows) Boundary(top, left []float64) float64 {
	sy, sx := 0.0, 0.0
	for t := range top { // square: len(left) == len(top)
		sy += math.Abs(r.y[t] - r.G)
		sx += math.Abs(r.x[t] - r.G)
		top[t], left[t] = sy, sx
	}
	return 0
}

func (r erpRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	gx := math.Abs(xi - r.G)
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		match := diag + math.Abs(xi-yj)
		gapX := u + gx
		gapY := left + math.Abs(yj-r.G)
		left = min(match, gapX, gapY)
		out[k] = left
		diag = u
	}
}

// MSM is the Move-Split-Merge distance (Stefan, Athitsos, Das 2013): an
// edit-style measure built from move (substitute), split, and merge
// operations, each costing C. Unlike DTW, LCSS, and EDR, MSM is a metric.
type MSM struct {
	C float64 // cost of a split or merge operation (Table 4's grid)
}

// Name implements measure.Measure.
func (m MSM) Name() string { return fmt.Sprintf("msm[c=%g]", m.C) }

// Symmetric implements measure.Symmetric: under x<->y the split and merge
// roles swap and msmCost is symmetric in its interval endpoints.
func (m MSM) Symmetric() bool { return true }

// msmCost is the split/merge cost C(new, a, b): c when new lies between a
// and b, otherwise c plus the distance to the nearer endpoint.
func (m MSM) msmCost(newPoint, a, b float64) float64 {
	if (a <= newPoint && newPoint <= b) || (b <= newPoint && newPoint <= a) {
		return m.C
	}
	return m.C + min(math.Abs(newPoint-a), math.Abs(newPoint-b))
}

// dp is MSM's n-by-n cost matrix over (x[i], y[j]), i, j in [0, n): its
// first row and column are recurrence-defined, so they form the boundary
// and the (n-1)-by-(n-1) interior is the DP. It prunes when C >= 0, which
// keeps every split and merge cost non-negative.
func (m MSM) dp(x, y []float64) DP[msmRows] {
	measure.CheckSameLength(x, y)
	n := max(len(x)-1, 0)
	return DP[msmRows]{R: n, C: n, OOB: math.Inf(1), Prune: m.C >= 0, Rows: msmRows{m, x, y}}
}

// Distance implements measure.Measure.
func (m MSM) Distance(x, y []float64) float64 { return m.dp(x, y).distance() }

// DistanceUpTo implements measure.EarlyAbandoning through the driver's
// cell pruning (DP.Serial); a negative or NaN C runs the full DP.
func (m MSM) DistanceUpTo(x, y []float64, cutoff float64) float64 {
	return m.dp(x, y).Serial(cutoff)
}

// DistanceWavefront computes MSM on the blocked wavefront path.
func (m MSM) DistanceWavefront(x, y []float64) float64 {
	return m.dp(x, y).Wavefront()
}

type msmRows struct {
	MSM
	x, y []float64
}

func (r msmRows) Boundary(top, left []float64) float64 {
	if len(r.x) == 0 {
		return 0
	}
	corner := math.Abs(r.x[0] - r.y[0])
	st, sl := corner, corner
	for t := range top { // square: len(left) == len(top)
		st += r.msmCost(r.y[t+1], r.x[0], r.y[t])
		sl += r.msmCost(r.x[t+1], r.x[t], r.y[0])
		top[t], left[t] = st, sl
	}
	return corner
}

func (r msmRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi, xim := r.x[i], r.x[i-1]
	yjm := r.y[j0-1]
	y := r.y[j0 : j1+1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		move := diag + math.Abs(xi-yj)
		split := u + r.msmCost(xi, xim, yj)
		merge := left + r.msmCost(yj, xi, yjm)
		left = min(move, split, merge)
		out[k] = left
		diag, yjm = u, yj
	}
}

// TWE is the Time Warp Edit distance (Marteau 2009): an elastic metric
// combining LCSS-style editing with DTW-style warping, controlled by a
// stiffness parameter Nu (penalizing warping against the time axis) and a
// constant edit penalty Lambda.
type TWE struct {
	Lambda float64 // edit penalty
	Nu     float64 // stiffness
}

// Name implements measure.Measure.
func (t TWE) Name() string { return fmt.Sprintf("twe[l=%g,n=%g]", t.Lambda, t.Nu) }

// Symmetric implements measure.Symmetric.
func (t TWE) Symmetric() bool { return true }

// dp prunes when Lambda and Nu are both >= 0, which keeps every edit and
// match cost non-negative.
func (t TWE) dp(x, y []float64) DP[tweRows] {
	measure.CheckSameLength(x, y)
	return DP[tweRows]{R: len(x), C: len(x), OOB: math.Inf(1), Prune: t.Lambda >= 0 && t.Nu >= 0, Rows: tweRows{TWE: t, x: x, y: y}}
}

// Distance implements measure.Measure.
func (t TWE) Distance(x, y []float64) float64 { return t.dp(x, y).distance() }

// DistanceUpTo implements measure.EarlyAbandoning through the driver's
// cell pruning (DP.Serial); a negative or NaN Lambda or Nu runs the full
// DP.
func (t TWE) DistanceUpTo(x, y []float64, cutoff float64) float64 {
	return t.dp(x, y).Serial(cutoff)
}

// DistanceWavefront computes TWE on the blocked wavefront path.
func (t TWE) DistanceWavefront(x, y []float64) float64 {
	return t.dp(x, y).Wavefront()
}

type tweRows struct {
	InfBoundary
	TWE
	x, y []float64
}

// Row follows the reference treatment, which pads both series with a
// leading zero sample at time 0; the pad is realized by index arithmetic
// (xi/xim, yj/yjm) instead of copies, so calls stay allocation-free.
func (r tweRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1] // xp[i]
	xim := 0.0     // xp[i-1]: the pad sample when i == 1
	if i > 1 {
		xim = r.x[i-2]
	}
	axd := math.Abs(xi - xim)
	yjm := 0.0 // yp[j-1]: the pad sample when j == 1
	if j0 > 1 {
		yjm = r.y[j0-2]
	}
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		// Delete in x: advance i only.
		delA := u + axd + r.Nu + r.Lambda
		// Delete in y: advance j only.
		delB := left + math.Abs(yj-yjm) + r.Nu + r.Lambda
		// Match: advance both, with stiffness on the time difference.
		match := diag + math.Abs(xi-yj) + math.Abs(xim-yjm) +
			2*r.Nu*math.Abs(float64(i-(j0+k)))
		left = min(match, delA, delB)
		out[k] = left
		diag, yjm = u, yj
	}
}

// Swale is the Sequence Weighted Alignment model (Morse & Patel 2007): a
// similarity model rewarding matches (within Epsilon) by R and penalizing
// gaps by P. The similarity is negated into a dissimilarity for 1-NN use.
type Swale struct {
	Epsilon float64 // match threshold
	P       float64 // gap penalty (subtracted per gap)
	R       float64 // match reward
}

// Name implements measure.Measure.
func (s Swale) Name() string { return fmt.Sprintf("swale[e=%g,p=%g,r=%g]", s.Epsilon, s.P, s.R) }

// Symmetric implements measure.Symmetric.
func (s Swale) Symmetric() bool { return true }

func (s Swale) dp(x, y []float64) DP[swaleRows] {
	measure.CheckSameLength(x, y)
	return DP[swaleRows]{R: len(x), C: len(x), Rows: swaleRows{s, x, y}}
}

// Distance implements measure.Measure.
func (s Swale) Distance(x, y []float64) float64 { return -s.dp(x, y).Serial(math.Inf(1)) }

type swaleRows struct {
	Swale
	x, y []float64
}

// Boundary: every gap before the first match costs P.
func (r swaleRows) Boundary(top, left []float64) float64 {
	for t := range top {
		top[t] = -r.P * float64(t+1)
	}
	copy(left, top)
	return -r.P * float64(0)
}

func (r swaleRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		if math.Abs(xi-yj) <= r.Epsilon {
			left = diag + r.R
		} else {
			left = max(u, left) - r.P
		}
		out[k] = left
		diag = u
	}
}

// All returns one representative instance of each of the 7 elastic
// measures, using the paper's unsupervised parameter choices (Table 5);
// supervised grids live in the eval package's parameter registry.
func All() []measure.Measure {
	return []measure.Measure{
		MSM{C: 0.5},
		TWE{Lambda: 1, Nu: 0.0001},
		DTW{DeltaPercent: 10},
		EDR{Epsilon: 0.1},
		Swale{Epsilon: 0.2, P: 5, R: 1},
		ERP{G: 0},
		LCSS{DeltaPercent: 5, Epsilon: 0.2},
	}
}
