package index

import (
	"fmt"
	"math"
	"sort"
)

// This file implements SAX (Symbolic Aggregate approXimation) with its
// MINDIST lower bound — the representation behind iSAX, the indexing work
// (Shieh & Keogh) whose ED-convergence claim is misconception M2's origin
// — and the DFT-coefficient lower bound of the seminal GEMINI paper
// (Agrawal, Faloutsos, Swami), which first tied ED to indexable Fourier
// features.

// saxBreakpoints returns the alphabet-1 breakpoints splitting the standard
// normal distribution into equiprobable regions, for alphabet sizes
// 2..16 (the published SAX tables, computed from the normal quantiles).
func saxBreakpoints(alphabet int) []float64 {
	if alphabet < 2 || alphabet > 16 {
		panic(fmt.Sprintf("index: SAX alphabet %d out of range 2..16", alphabet))
	}
	out := make([]float64, alphabet-1)
	for i := range out {
		p := float64(i+1) / float64(alphabet)
		out[i] = normQuantile(p)
	}
	return out
}

// normQuantile computes the standard normal quantile by bisection on the
// CDF; accuracy ~1e-10 suffices for breakpoint tables.
func normQuantile(p float64) float64 {
	lo, hi := -10.0, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if 0.5*(1+math.Erf(mid/math.Sqrt2)) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// SAX is a symbolic representation scheme: series are PAA-reduced to
// Segments coefficients and each coefficient is quantized into one of
// Alphabet equiprobable symbols (assuming z-normalized input).
type SAX struct {
	Segments int
	Alphabet int

	breaks []float64
}

// NewSAX builds the scheme, precomputing the breakpoint table.
func NewSAX(segments, alphabet int) *SAX {
	if segments < 1 {
		panic(fmt.Sprintf("index: SAX segments %d < 1", segments))
	}
	return &SAX{Segments: segments, Alphabet: alphabet, breaks: saxBreakpoints(alphabet)}
}

// Symbolize converts a (z-normalized) series into its SAX word: a slice of
// symbol indexes in [0, Alphabet).
func (s *SAX) Symbolize(x []float64) []int {
	paa := PAA(x, s.Segments)
	word := make([]int, len(paa))
	for i, v := range paa {
		word[i] = sort.SearchFloat64s(s.breaks, v)
	}
	return word
}

// MinDist returns the SAX MINDIST lower bound of the Euclidean distance
// between the original series of two SAX words (both of original length
// m): sqrt(m/segments * sum cellDist^2), where cellDist is the gap between
// the breakpoint regions of differing symbols, with each segment weighted
// by its point count when m is not a multiple of the word length (see
// segmentBound). MINDIST never exceeds the true z-normalized ED.
func (s *SAX) MinDist(a, b []int, m int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("index: SAX word lengths %d vs %d", len(a), len(b)))
	}
	return segmentBound(m, len(a), func(i int) float64 { return s.cellDist(a[i], b[i]) })
}

// cellDist is the minimum distance between two symbol regions: zero for
// adjacent or equal symbols, otherwise the gap between the breakpoints.
func (s *SAX) cellDist(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	if b-a <= 1 {
		return 0
	}
	return s.breaks[b-1] - s.breaks[a]
}

// DFTLowerBound computes the GEMINI Fourier lower bound of the Euclidean
// distance using the first k DFT coefficient differences of both series
// (coefficients must come from DFTCoefficients with the same k): by
// Parseval's theorem the truncated spectrum distance never exceeds the
// true ED.
func DFTLowerBound(a, b []complex128) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("index: coefficient lengths %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		re, im := real(d), imag(d)
		w := 2.0 // conjugate-symmetric twin counts double...
		if i == 0 {
			w = 1 // ...except the DC coefficient
		}
		sum += w * (re*re + im*im)
	}
	return math.Sqrt(sum)
}

// DFTCoefficients returns the first k normalized DFT coefficients of x
// (scaled by 1/sqrt(m) so Parseval holds exactly against the time-domain
// ED). k is clamped to (m+1)/2 so that every returned non-DC coefficient
// has a conjugate twin — the assumption DFTLowerBound's doubling relies
// on (the Nyquist coefficient of an even-length signal is excluded).
func DFTCoefficients(x []float64, k int) []complex128 {
	m := len(x)
	if m == 0 {
		return nil
	}
	if k > (m+1)/2 {
		k = (m + 1) / 2
	}
	scale := 1 / math.Sqrt(float64(m))
	out := make([]complex128, k)
	for f := 0; f < k; f++ {
		var re, im float64
		for t, v := range x {
			ang := -2 * math.Pi * float64(f) * float64(t) / float64(m)
			re += v * math.Cos(ang)
			im += v * math.Sin(ang)
		}
		out[f] = complex(re*scale, im*scale)
	}
	return out
}
