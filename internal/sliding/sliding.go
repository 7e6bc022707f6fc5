// Package sliding implements the 4 cross-correlation distance measures of
// Section 6 of the paper: NCC, the biased estimator NCCb, the unbiased
// estimator NCCu, and the coefficient normalization NCCc (the SBD measure
// of k-Shape). Each slides one series over all 2m-1 shifts of the other and
// keeps the best alignment. All variants are backed by the FFT-based
// cross-correlation, O(m log m), and implement the measure.Stateful fast
// path so full dissimilarity matrices reuse each series' forward transform.
package sliding

import (
	"math"

	"repro/internal/fft"
	"repro/internal/measure"
)

// Variant selects the normalization of the cross-correlation sequence.
type Variant int

const (
	// NCC takes the raw maximum of the cross-correlation sequence.
	NCC Variant = iota
	// NCCb divides by the length m (biased estimator).
	NCCb
	// NCCu divides each shift w by m - |w-m| (unbiased estimator).
	NCCu
	// NCCc divides by ||x||*||y|| (coefficient normalization, SBD).
	NCCc
)

// String returns the variant's registry name.
func (v Variant) String() string {
	switch v {
	case NCC:
		return "ncc"
	case NCCb:
		return "nccb"
	case NCCu:
		return "nccu"
	case NCCc:
		return "nccc"
	default:
		return "ncc?"
	}
}

// Measure is a sliding cross-correlation dissimilarity.
type Measure struct {
	variant Variant
}

// New returns the sliding measure for the chosen variant.
func New(v Variant) *Measure { return &Measure{variant: v} }

// Name implements measure.Measure.
func (m *Measure) Name() string { return m.variant.String() }

// prepared is the per-series state for the Stateful fast path.
type prepared struct {
	plan *fft.Plan
	norm float64 // Euclidean norm, used by NCCc
}

// Prepare implements measure.Stateful.
func (m *Measure) Prepare(x []float64) any {
	var ss float64
	for _, v := range x {
		ss += v * v
	}
	return &prepared{plan: fft.NewPlan(x), norm: math.Sqrt(ss)}
}

// PreparedDistance implements measure.Stateful.
func (m *Measure) PreparedDistance(px, py any) float64 {
	a := px.(*prepared)
	b := py.(*prepared)
	return a.plan.CrossCorrelateReduce(b.plan, func(cc []float64) float64 {
		return m.fromCC(cc, a.plan.Len(), a.norm, b.norm)
	})
}

// Distance implements measure.Measure. Similarities are converted to
// dissimilarities: NCCc becomes 1 - max (the SBD distance in [0, 2] for
// unit-norm inputs); the unbounded variants are negated, which preserves
// nearest-neighbor ordering.
func (m *Measure) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	cc := fft.CrossCorrelation(x, y)
	var nx, ny float64
	if m.variant == NCCc {
		for _, v := range x {
			nx += v * v
		}
		for _, v := range y {
			ny += v * v
		}
		nx, ny = math.Sqrt(nx), math.Sqrt(ny)
	}
	return m.fromCC(cc, len(x), nx, ny)
}

// fromCC converts the full cross-correlation sequence into the variant's
// dissimilarity. Index k of cc corresponds to w = k+1 in the paper's
// notation (w in 1..2m-1).
func (m *Measure) fromCC(cc []float64, length int, nx, ny float64) float64 {
	if len(cc) == 0 {
		// Two empty series are identical; without this guard the similarity
		// maximum stays -Inf and every variant reported +Inf (or 1).
		return 0
	}
	best := math.Inf(-1)
	switch m.variant {
	case NCC:
		for _, v := range cc {
			if v > best {
				best = v
			}
		}
	case NCCb:
		mf := float64(length)
		for _, v := range cc {
			if s := v / mf; s > best {
				best = s
			}
		}
	case NCCu:
		mf := float64(length)
		for k, v := range cc {
			w := float64(k + 1)
			den := mf - math.Abs(w-mf)
			if den <= 0 {
				continue
			}
			if s := v / den; s > best {
				best = s
			}
		}
	case NCCc:
		den := nx * ny
		if den == 0 {
			// A zero series correlates zero with everything: the
			// coefficient is defined as 0, giving the maximum distance 1.
			return 1
		}
		for _, v := range cc {
			if s := v / den; s > best {
				best = s
			}
		}
		return 1 - best
	}
	if best == 0 {
		return 0 // avoid the negative zero of -best
	}
	return -best
}

// SBD returns the NCCc measure under its k-Shape name: the shape-based
// distance 1 - max_w CC_w(x, y)/(||x||*||y||).
func SBD() *Measure { return New(NCCc) }

// All returns the 4 sliding measures of Table 3.
func All() []measure.Measure {
	return []measure.Measure{New(NCC), New(NCCb), New(NCCu), New(NCCc)}
}
