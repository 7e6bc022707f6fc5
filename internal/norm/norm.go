// Package norm implements the 8 time-series normalization methods of
// Section 4 of the paper, applied per series as a preprocessing step before
// any distance computation, plus the pairwise adaptive-scaling transform
// exposed as a measure decorator.
package norm

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/measure"
)

// Normalizer transforms a single series; it never mutates its input. It
// must be safe for concurrent use: eval.Normalize maps it over a dataset's
// series on several goroutines.
type Normalizer interface {
	Name() string
	Normalize(x []float64) []float64
}

// nfunc adapts a function to Normalizer.
type nfunc struct {
	name string
	fn   func(x []float64) []float64
}

func (n nfunc) Name() string                    { return n.name }
func (n nfunc) Normalize(x []float64) []float64 { return n.fn(x) }

func mean(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func minMax(x []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ZScore transforms to zero mean and unit variance (Eq. 1); a constant
// series becomes all zeros. This is the literature's default (see M1).
func ZScore() Normalizer {
	return nfunc{"zscore", func(x []float64) []float64 {
		out := make([]float64, len(x))
		if len(x) == 0 {
			return out
		}
		mu := mean(x)
		var ss float64
		for _, v := range x {
			d := v - mu
			ss += d * d
		}
		sd := math.Sqrt(ss / float64(len(x)))
		if sd == 0 {
			return out
		}
		for i, v := range x {
			out[i] = (v - mu) / sd
		}
		return out
	}}
}

// MinMax scales values into [0, 1] (Eq. 2); a constant series becomes all
// zeros.
func MinMax() Normalizer {
	return nfunc{"minmax", func(x []float64) []float64 {
		out := make([]float64, len(x))
		if len(x) == 0 {
			return out
		}
		lo, hi := minMax(x)
		span := hi - lo
		if span == 0 {
			return out
		}
		for i, v := range x {
			out[i] = (v - lo) / span
		}
		return out
	}}
}

// MinMaxRange scales values into [a, b] (Eq. 3), the variant preferred when
// measures cannot handle zeros.
func MinMaxRange(a, b float64) Normalizer {
	name := "minmaxrange"
	return nfunc{name, func(x []float64) []float64 {
		out := make([]float64, len(x))
		if len(x) == 0 {
			return out
		}
		lo, hi := minMax(x)
		span := hi - lo
		if span == 0 {
			for i := range out {
				out[i] = a
			}
			return out
		}
		for i, v := range x {
			out[i] = a + (v-lo)*(b-a)/span
		}
		return out
	}}
}

// MeanNorm combines the z-score numerator with the MinMax denominator
// (Eq. 4).
func MeanNorm() Normalizer {
	return nfunc{"meannorm", func(x []float64) []float64 {
		out := make([]float64, len(x))
		if len(x) == 0 {
			return out
		}
		mu := mean(x)
		lo, hi := minMax(x)
		span := hi - lo
		if span == 0 {
			return out
		}
		for i, v := range x {
			out[i] = (v - mu) / span
		}
		return out
	}}
}

// MedianNorm divides each point by the series median (Eq. 5); a zero median
// leaves the series unchanged (the numerical issue the paper notes).
func MedianNorm() Normalizer {
	return nfunc{"mediannorm", func(x []float64) []float64 {
		out := make([]float64, len(x))
		if len(x) == 0 {
			return out
		}
		med := median(x)
		if med == 0 {
			copy(out, x)
			return out
		}
		for i, v := range x {
			out[i] = v / med
		}
		return out
	}}
}

// median returns the middle element, or the mean of the middle two, of x
// in the order slices.Sort gives a copy of it: NaNs first, then ascending.
// It selects them in its copy instead of sorting it, which returns the
// same float.
func median(x []float64) float64 {
	s := append([]float64(nil), x...)
	nan := 0 // NaNs moved to the front, where the sort puts them
	for i, v := range s {
		if v != v {
			s[i], s[nan] = s[nan], v
			nan++
		}
	}
	hi := len(s) / 2
	rest, k := s[nan:], hi-nan // s[hi] is rest[k] when k >= 0
	if k >= 0 {
		selectNth(rest, k)
	}
	if len(s)%2 == 1 {
		return s[hi]
	}
	lo := s[hi-1]
	if k >= 1 {
		lo = rest[0]
		for _, v := range rest[1:k] {
			if v > lo {
				lo = v
			}
		}
	}
	return (lo + s[hi]) / 2
}

// selectNth reorders a, which holds no NaN, so that a[k] is the element an
// ascending sort puts there and no element before it is larger: a
// quickselect with a median-of-three pivot that sorts a short range, or
// one left after 2·log₂(len(a)) rounds, so adversarial input stays
// O(n log n).
func selectNth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for rounds := 2 * bits.Len(uint(len(a))); hi-lo > 16 && rounds > 0; rounds-- {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		p := max(min(x, y), min(max(x, y), z)) // the median of the three
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for p < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// a[lo..j] <= p, a[i..hi] >= p, and everything between equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
	slices.Sort(a[lo : hi+1])
}

// UnitLength scales the series to unit Euclidean norm (Eq. 6); a zero
// series is left as zeros.
func UnitLength() Normalizer {
	return nfunc{"unitlength", func(x []float64) []float64 {
		out := make([]float64, len(x))
		var ss float64
		for _, v := range x {
			ss += v * v
		}
		nrm := math.Sqrt(ss)
		if nrm == 0 {
			return out
		}
		for i, v := range x {
			out[i] = v / nrm
		}
		return out
	}}
}

// Logistic applies the sigmoid activation 1/(1+e^-x) point-wise (Eq. 8).
func Logistic() Normalizer {
	return nfunc{"logistic", func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = 1 / (1 + math.Exp(-v))
		}
		return out
	}}
}

// Tanh applies the hyperbolic tangent activation point-wise (Eq. 9).
func Tanh() Normalizer {
	return nfunc{"tanh", func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = math.Tanh(v)
		}
		return out
	}}
}

// All returns the 8 per-series normalization methods of Section 4, with
// MinMaxRange instantiated to the commonly used [1, 2] range so that the
// zero-sensitive measures remain well defined.
func All() []Normalizer {
	return []Normalizer{
		ZScore(), MinMax(), MinMaxRange(1, 2), MeanNorm(),
		MedianNorm(), UnitLength(), Logistic(), Tanh(),
	}
}

// ByName returns the normalizer with the given name from All, or nil.
func ByName(name string) Normalizer {
	for _, n := range All() {
		if n.Name() == name {
			return n
		}
	}
	return nil
}

// AdaptiveScaling wraps a measure so that before each comparison the second
// series is rescaled by the least-squares optimal factor
// a = <x, y> / <y, y>, minimizing ||x - a*y|| (Eq. 7's pairwise scaling;
// the paper writes the denominator as <x, x>, but the least-squares factor
// is the standard form of the cited optimal-scaling work and is what makes
// ED(x, a*y) minimal). The decorated measure is evaluated on (x, a*y).
func AdaptiveScaling(m measure.Measure) measure.Measure {
	return measure.New(m.Name()+"+adaptive", func(x, y []float64) float64 {
		var xy, yy float64
		for i := range x {
			xy += x[i] * y[i]
			yy += y[i] * y[i]
		}
		scaled := make([]float64, len(y))
		a := 1.0
		if yy != 0 {
			a = xy / yy
		}
		for i, v := range y {
			scaled[i] = a * v
		}
		return m.Distance(x, scaled)
	})
}

// AdaptiveName is the registry identifier for the pairwise adaptive-scaling
// "normalization" of Table 3 (implemented as a measure decorator).
const AdaptiveName = "adaptive"
