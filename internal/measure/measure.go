// Package measure defines the common interface implemented by every
// time-series distance measure in the library, small adapters for building
// measures from plain functions, and the guarded arithmetic helpers shared
// by the probability-style lock-step measures.
//
// A Measure maps two equal-length series to a dissimilarity value: smaller
// means more similar. Similarity measures (inner products, kernels,
// cross-correlations) are exposed in negated or 1-s form so that a single
// nearest-neighbor implementation serves all five categories of the paper.
//
// Beside Measure the package declares seven optional interfaces the
// evaluation, search and snapshot engines check for: Stateful, Symmetric,
// EarlyAbandoning, LowerBounded (over BoundContext), PanelEvaluator,
// NestedBounds and BoundSharing.
package measure

import (
	"fmt"
	"math"
)

// Measure is a dissimilarity between two equal-length time series.
type Measure interface {
	// Name returns a stable identifier used in tables, registries, and
	// experiment output (e.g. "lorentzian", "dtw[d=10]").
	Name() string
	// Distance returns the dissimilarity of x and y. Implementations may
	// return +Inf (or NaN, treated as +Inf by the evaluation layer) when a
	// measure is undefined for the given inputs, e.g. entropy measures on
	// non-positive data.
	Distance(x, y []float64) float64
}

// Stateful is an optional fast path: measures that benefit from per-series
// precomputation (FFTs, norms, running statistics) implement it, and the
// evaluation, search and snapshot layers prepare each series once per
// measure instead of once per pair. Prepared state belongs to one measure:
// no engine shares it between measures of different names, so it may
// depend on every parameter.
type Stateful interface {
	Measure
	// Prepare computes reusable per-series state.
	Prepare(x []float64) any
	// PreparedDistance computes the distance from two prepared states.
	PreparedDistance(px, py any) float64
}

// Symmetric is an optional marker: measures whose Distance(x, y) equals
// Distance(y, x) bitwise implement it (returning true), letting the
// evaluation layer compute only one triangle of a square dissimilarity
// matrix and the search engine share each pair distance between both
// leave-one-out rows. The contract is exact equality, not equality up to
// rounding: DP measures whose transposed recurrence combines the same
// operands with the same operations qualify, but measures that merely
// happen to be mathematically symmetric with different summation orders do
// not.
type Symmetric interface {
	Measure
	// Symmetric reports whether the measure is exactly symmetric.
	Symmetric() bool
}

// IsSymmetric reports whether m declares exact symmetry.
func IsSymmetric(m Measure) bool {
	s, ok := m.(Symmetric)
	return ok && s.Symmetric()
}

// EarlyAbandoning is an optional fast path for best-so-far-aware search:
// DistanceUpTo may stop as soon as the running accumulation proves the
// final distance cannot be below cutoff.
type EarlyAbandoning interface {
	Measure
	// DistanceUpTo returns Distance(x, y) exactly whenever that value is
	// < cutoff. Otherwise it may abandon the computation and return any
	// value v with cutoff <= v <= Distance(x, y), so the caller can both
	// reject the candidate and reuse v as a certified lower bound.
	DistanceUpTo(x, y []float64, cutoff float64) float64
}

// BoundContext is reusable per-series state backing a measure's lower
// bounds (envelopes, cached extrema, scratch deques). Contexts are not
// safe for concurrent use; the search engine keeps one per worker for
// queries and one per reference series, filled once.
type BoundContext interface {
	// Fill recomputes the context for x. Implementations must be
	// allocation-free when len(x) matches the length the context currently
	// holds buffers for, and may grow the buffers otherwise.
	Fill(x []float64)
}

// LowerBounded is an optional fast path for pruned nearest-neighbor
// search: measures that admit cheap lower bounds (LB_Kim, LB_Keogh, ...)
// expose them through a cascade evaluated against a best-so-far cutoff.
type LowerBounded interface {
	Measure
	// NewBoundContext allocates a context for series of length m.
	NewBoundContext(m int) BoundContext
	// LowerBound returns a value <= Distance(x, y), given filled contexts
	// for both series. Implementations run their bound cascade from
	// cheapest to tightest and may stop early once the bound reaches
	// cutoff; every returned value must still be a valid lower bound.
	LowerBound(x, y []float64, cx, cy BoundContext, cutoff float64) float64
}

// PanelEvaluator is an optional batched fast path for lock-step measures:
// the search and evaluation layers hand one query and a whole panel of
// candidate series to the engine in a single call, letting it fuse
// per-candidate accumulators, hoist bounds checks, and unroll across
// candidates. The contract is bitwise: on success out[k] must hold exactly
// the value the per-pair Distance would produce, before NaN sanitization —
// the caller sanitizes. A false return
// means the engine declined (e.g. a candidate's length differs from the
// query's) and the caller must fall back to the per-pair path; out content
// is then unspecified and will be overwritten.
type PanelEvaluator interface {
	Measure
	// PanelDistances fills out[k] = Distance(q, panel[k]) for every k in
	// [0, len(panel)), returning false to decline. len(out) must be at
	// least len(panel).
	PanelDistances(q []float64, panel [][]float64, out []float64) bool
	// PanelDistancesUpTo is PanelDistances under a shared best-so-far
	// cutoff, applying the EarlyAbandoning contract per candidate: out[k]
	// equals Distance(q, panel[k]) exactly whenever that value is < cutoff,
	// and is otherwise some v with cutoff <= v <= Distance(q, panel[k]), so
	// the caller can both reject the candidate and reuse v as a certified
	// lower bound.
	PanelDistancesUpTo(q []float64, panel [][]float64, cutoff float64, out []float64) bool
}

// NestedBounds declares grid monotonicity: DominatedBy(other) reports that
// Distance(x, y) <= other.Distance(x, y) for every finite input pair —
// e.g. DTW under a wider Sakoe-Chiba band minimizes over a superset of
// warping paths, so a narrower band's exact distances are valid upper
// bounds for it. The grid tuning engine seeds best-so-far cutoffs for a
// candidate from a dominating candidate's completed results (warm starts);
// the declaration is advisory — the engine detects and repairs rows where
// the claimed bound turns out unachievable (possible only on non-finite
// inputs), so a too-optimistic declaration costs work, never exactness.
type NestedBounds interface {
	Measure
	// DominatedBy reports Distance(x, y) <= other.Distance(x, y) for all
	// finite x, y.
	DominatedBy(other Measure) bool
}

// BoundSharing extends LowerBounded for grid sweeps: bound contexts
// allocated for one candidate can be rebound — buffers reused, contents
// refilled — to another candidate of the same family, so a parameter sweep
// allocates envelopes once instead of once per candidate.
type BoundSharing interface {
	LowerBounded
	// SharesBounds reports whether contexts created by other's
	// NewBoundContext can be rebound to this measure.
	SharesBounds(other Measure) bool
	// RebindBoundContext adapts c (created by a SharesBounds candidate) to
	// this measure and refills it for x, reusing c's buffers. It returns c.
	RebindBoundContext(c BoundContext, x []float64) BoundContext
}

// Func adapts a plain function to the Measure interface.
type Func struct {
	name string
	fn   func(x, y []float64) float64
}

// New builds a Measure from a name and a distance function.
func New(name string, fn func(x, y []float64) float64) Func {
	return Func{name: name, fn: fn}
}

// Name implements Measure.
func (f Func) Name() string { return f.name }

// Distance implements Measure.
func (f Func) Distance(x, y []float64) float64 {
	CheckSameLength(x, y)
	return f.fn(x, y)
}

// CheckSameLength panics when the two series differ in length; every
// lock-step, elastic, and kernel measure in this library operates on
// equal-length series (the archive preprocessing guarantees it).
func CheckSameLength(x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("measure: series length mismatch %d vs %d", len(x), len(y)))
	}
}

// Guarded arithmetic for the probability-style measures of the Cha (2007)
// survey. The convention, matching common reference implementations, is
// that a term with a zero denominator and zero numerator contributes
// nothing, while genuinely undefined operations (log of a non-positive
// value with a positive weight) poison the total to +Inf so the evaluation
// layer can rank the pair last.

// Div returns num/den with the 0/0 := 0 convention; a zero denominator with
// a non-zero numerator yields +Inf.
func Div(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// XLogX returns x*log(x) with the limit convention 0*log(0) := 0; negative
// x yields +Inf (undefined for the entropy family).
func XLogX(x float64) float64 {
	if x == 0 {
		return 0
	}
	if x < 0 {
		return math.Inf(1)
	}
	return x * math.Log(x)
}

// XLogXOverY returns x*log(x/y) with 0*log(0/y) := 0; undefined
// combinations (negative values, or positive x with non-positive y) yield
// +Inf.
func XLogXOverY(x, y float64) float64 {
	if x == 0 {
		return 0
	}
	if x < 0 || y <= 0 {
		return math.Inf(1)
	}
	return x * math.Log(x/y)
}

// SafeSqrt returns sqrt(x) for non-negative x and 0 for small negative
// rounding noise; a substantially negative input yields NaN, poisoning the
// measure value as undefined.
func SafeSqrt(x float64) float64 {
	if x < 0 {
		if x > -1e-12 {
			return 0
		}
		return math.NaN()
	}
	return math.Sqrt(x)
}

// Sanitize maps NaN to +Inf so that undefined distances rank last in
// nearest-neighbor search; finite values and +Inf pass through.
func Sanitize(d float64) float64 {
	if math.IsNaN(d) {
		return math.Inf(1)
	}
	return d
}
