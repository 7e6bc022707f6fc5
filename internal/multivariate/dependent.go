package multivariate

// Dependent generalizations of the elastic measures: one warping path over
// vector-valued points. Each measure supplies only its boundary and its
// vector-cost row function; the DPs run over the m-by-n cost matrix — the
// two series may differ in length, exactly as in the univariate
// definitions — on the serial path of the internal/elastic DP driver,
// which owns the pooled rows, band and cell pruning, so warm calls are
// allocation-free. Point costs reduce to the univariate costs at one
// channel (squared difference for DTW, absolute difference for ERP and
// MSM) and each row function combines them in its univariate counterpart's
// operation order, so at d=1 the dependent measures are bitwise identical
// to internal/elastic — the oracle harness pins this.

import (
	"fmt"
	"math"

	"repro/internal/elastic"
)

// sqDist is the squared Euclidean distance between two d-dimensional
// points; at d=1 it performs exactly the univariate (x-y)^2.
func sqDist(a, b []float64) float64 {
	var s float64
	b = b[:len(a)]
	for k := range a {
		d := a[k] - b[k]
		s += d * d
	}
	return s
}

// l1Dist is the L1 distance between two d-dimensional points; at d=1 it is
// exactly math.Abs(x-y).
func l1Dist(a, b []float64) float64 {
	var s float64
	b = b[:len(a)]
	for k := range a {
		s += math.Abs(a[k] - b[k])
	}
	return s
}

// DTWDependent is multivariate DTW with a single warping path over
// vector-valued points (DTW-D): the point cost is the squared Euclidean
// distance between the two d-dimensional samples. DeltaPercent is the
// Sakoe-Chiba band, as in the univariate DTW. Unequal-length pairs run the
// m-by-n banded DP; when exactly one series is empty only the +Inf DP
// boundary remains, so the distance is +Inf (no alignment exists), and two
// empty series are at distance 0.
type DTWDependent struct {
	DeltaPercent int
}

// Name implements Measure.
func (d DTWDependent) Name() string { return fmt.Sprintf("mv-dtw-d[d=%d]", d.DeltaPercent) }

// Symmetric reports bitwise symmetry: the transposed DP combines the same
// operands with the same operations (comparisons carry no rounding).
func (d DTWDependent) Symmetric() bool { return true }

// Distance implements Measure.
func (d DTWDependent) Distance(x, y Series) float64 { return d.DistanceUpTo(x, y, math.Inf(1)) }

// DistanceUpTo implements EarlyAbandoning with the univariate DTW
// contract: the banded DP under the driver's cell pruning, abandoned with
// cutoff once a row has no cell below it.
func (d DTWDependent) DistanceUpTo(x, y Series, cutoff float64) float64 {
	checkChannels(x, y)
	// The band is the univariate window of the longer series, widened to
	// |m-n| so the (m, n) corner stays reachable; at m == n it is exactly
	// the univariate window.
	m, n := len(x), len(y)
	w := max(elastic.WindowSize(d.DeltaPercent, max(m, n)), m-n, n-m)
	return elastic.DP[dtwRows]{R: m, C: n, W: w, OOB: math.Inf(1), Prune: true, Rows: dtwRows{x: x, y: y}}.Serial(cutoff)
}

type dtwRows struct {
	elastic.InfBoundary
	x, y Series
}

// Row carries its left neighbour and diagonal in registers over re-sliced
// rows, as the univariate rows do, and picks its minimum with
// elastic.MinDTW: a sum of squares keeps every cell in its domain.
func (r dtwRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		left = sqDist(xi, yj) + elastic.MinDTW(diag, u, left)
		out[k] = left
		diag = u
	}
}

// ERPDependent is multivariate ERP with vector-valued points: gaps are
// penalized by the L1 distance of the point to the constant gap value G on
// every channel, matches by the L1 point distance. The DP is the full
// m-by-n ERP matrix; deleting an entire series against an empty one costs
// its cumulative gap penalty, so unequal lengths — including one empty
// side — are well defined.
type ERPDependent struct {
	G float64
}

// Name implements Measure.
func (e ERPDependent) Name() string { return "mv-erp-d" }

// Symmetric reports bitwise symmetry (as for DTW, the transposed
// recurrence combines the same operands).
func (e ERPDependent) Symmetric() bool { return true }

// gapCost is the L1 penalty for aligning point p against the gap value; at
// d=1 it is exactly math.Abs(p-G).
func (e ERPDependent) gapCost(p []float64) float64 {
	var s float64
	for k := range p {
		s += math.Abs(p[k] - e.G)
	}
	return s
}

// Distance implements Measure.
func (e ERPDependent) Distance(x, y Series) float64 { return e.DistanceUpTo(x, y, math.Inf(1)) }

// DistanceUpTo implements EarlyAbandoning through the driver's cell
// pruning; a NaN G runs the full DP.
func (e ERPDependent) DistanceUpTo(x, y Series, cutoff float64) float64 {
	checkChannels(x, y)
	return elastic.DP[erpRows]{R: len(x), C: len(y), OOB: math.Inf(1), Prune: !math.IsNaN(e.G), Rows: erpRows{e, x, y}}.Serial(cutoff)
}

type erpRows struct {
	ERPDependent
	x, y Series
}

// Boundary: deleting a prefix costs its running gap penalty.
func (r erpRows) Boundary(top, left []float64) float64 {
	s := 0.0
	for t := range top {
		s += r.gapCost(r.y[t])
		top[t] = s
	}
	s = 0
	for t := range left {
		s += r.gapCost(r.x[t])
		left[t] = s
	}
	return 0
}

func (r erpRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	gx := r.gapCost(xi)
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		match := diag + l1Dist(xi, yj)
		gapX := u + gx
		gapY := left + r.gapCost(yj)
		left = min(match, gapX, gapY)
		out[k] = left
		diag = u
	}
}

// MSMDependent is multivariate Move-Split-Merge with vector-valued points:
// the move cost is the L1 point distance and the split/merge cost is C
// when the new point lies componentwise between its two anchors, otherwise
// C plus the L1 distance to the nearer anchor — both reduce exactly to the
// univariate MSM costs at one channel. Two empty series are at distance 0;
// exactly one empty side is +Inf (MSM defines no gap operation).
type MSMDependent struct {
	C float64
}

// Name implements Measure.
func (m MSMDependent) Name() string { return fmt.Sprintf("mv-msm-d[c=%g]", m.C) }

// Symmetric reports bitwise symmetry: under x<->y the split and merge
// roles swap and the cost is symmetric in its anchor points.
func (m MSMDependent) Symmetric() bool { return true }

// msmCost is the vector split/merge cost C(new, a, b).
func (m MSMDependent) msmCost(p, a, b []float64) float64 {
	between := true
	var dpa, dpb float64
	for k := range p {
		if !((a[k] <= p[k] && p[k] <= b[k]) || (b[k] <= p[k] && p[k] <= a[k])) {
			between = false
		}
		dpa += math.Abs(p[k] - a[k])
		dpb += math.Abs(p[k] - b[k])
	}
	if between {
		return m.C
	}
	return m.C + min(dpa, dpb)
}

// Distance implements Measure.
func (m MSMDependent) Distance(x, y Series) float64 { return m.DistanceUpTo(x, y, math.Inf(1)) }

// DistanceUpTo implements EarlyAbandoning through the driver's cell
// pruning; a negative or NaN C runs the full DP.
func (m MSMDependent) DistanceUpTo(x, y Series, cutoff float64) float64 {
	checkChannels(x, y)
	mm, n := len(x), len(y)
	if mm == 0 && n == 0 {
		return 0
	}
	if mm == 0 || n == 0 {
		return math.Inf(1)
	}
	return elastic.DP[msmRows]{R: mm - 1, C: n - 1, OOB: math.Inf(1), Prune: m.C >= 0, Rows: msmRows{m, x, y}}.Serial(cutoff)
}

// msmRows runs MSM's interior over (x[i], y[j]), i, j >= 1; the
// recurrence-defined first row and column are its boundary.
type msmRows struct {
	MSMDependent
	x, y Series
}

func (r msmRows) Boundary(top, left []float64) float64 {
	corner := l1Dist(r.x[0], r.y[0])
	s := corner
	for t := range top {
		s += r.msmCost(r.y[t+1], r.x[0], r.y[t])
		top[t] = s
	}
	s = corner
	for t := range left {
		s += r.msmCost(r.x[t+1], r.x[t], r.y[0])
		left[t] = s
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
		move := diag + l1Dist(xi, yj)
		split := u + r.msmCost(xi, xim, yj)
		merge := left + r.msmCost(yj, xi, yjm)
		left = min(move, split, merge)
		out[k] = left
		diag, yjm = u, yj
	}
}
