// Package fft implements the real-input FFT kernel behind every
// cross-correlation of real series — the sliding distance measures, the
// SINK kernel, k-Shape's SBD and the matrix-profile engines' sliding dot
// products — on an iterative radix-2 complex core.
//
// A real series zero-padded to a power of two m >= 2 is transformed as one
// m/2-point complex FFT of its even and odd samples packed into real and
// imaginary parts, which is then split into the m/2+1 bins of its
// Hermitian spectrum. The inverse merges a Hermitian half spectrum into
// one m/2-point complex FFT whose real parts are the even output samples
// and whose imaginary parts are the odd ones. Every cross-correlation
// route runs the same steps (spectrum product, merge, half-length inverse,
// unwrap) at the same padded length, so the routes agree bitwise.
//
// The radix-2 core reads its twiddle factors from a table cached once per
// direction (see twiddles). Every transform is O(n log n).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It panics if n is
// not positive or the result would overflow an int.
func NextPowerOfTwo(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("fft: NextPowerOfTwo of non-positive %d", n))
	}
	p := 1
	for p < n {
		if p > math.MaxInt/2 {
			panic("fft: NextPowerOfTwo overflow")
		}
		p <<= 1
	}
	return p
}

// twiddleTable[0] (forward) and twiddleTable[1] (inverse) hold the twiddle
// factors of every radix-2 stage up to the largest size transformed so
// far. The stage that combines blocks of 2h points sits at [h-1, 2h-1),
// its entry k being wl^k for wl = exp(∓2πi/(2h)). The entries are the
// serial w *= wl chain's values, not exact roots of unity, so radix2, and
// with it every route of the real-input kernel, keeps the bits it had when
// each block ran that chain itself. A stage does not depend on the
// transform size, so the table for size n is a prefix of the table for 2n:
// a table grows by doubling under twiddleMu and is published atomically,
// and readers take no lock. It holds n-1 factors for the largest size n,
// no more than one buffer of that transform.
var (
	twiddleTable [2]atomic.Pointer[[]complex128]
	twiddleMu    sync.Mutex
)

// twiddles returns the n-1 cached twiddle factors of a radix-2 transform
// of power-of-two size n in the given direction, filling the table on
// first use of a size.
func twiddles(n int, inverse bool) []complex128 {
	d := 0
	if inverse {
		d = 1
	}
	if t := twiddleTable[d].Load(); t != nil && len(*t) >= n-1 {
		return (*t)[:n-1]
	}
	twiddleMu.Lock()
	defer twiddleMu.Unlock()
	var t []complex128
	if p := twiddleTable[d].Load(); p != nil {
		t = *p
	}
	if len(t) < n-1 {
		sign := -1.0
		if inverse {
			sign = 1.0
		}
		grown := make([]complex128, n-1)
		copy(grown, t)
		for half := len(t) + 1; half < n; half <<= 1 {
			length := 2 * half
			ang := sign * 2 * math.Pi / float64(length)
			wl := cmplx.Exp(complex(0, ang))
			w := complex(1, 0)
			stage := grown[half-1 : length-1]
			for k := range stage {
				stage[k] = w
				w *= wl
			}
		}
		t = grown
		twiddleTable[d].Store(&t)
	}
	return t[:n-1]
}

// radix2 performs an unnormalized iterative radix-2 transform in place.
// len(x) must be a power of two.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	tw := twiddles(n, inverse)
	for half := 1; half < n; half <<= 1 {
		w := tw[half-1 : 2*half-1]
		for start := 0; start < n; start += 2 * half {
			lo := x[start : start+half][:len(w)]
			hi := x[start+half : start+2*half][:len(w)]
			for k, wk := range w {
				u := lo[k]
				v := hi[k] * wk
				lo[k] = u + v
				hi[k] = u - v
			}
		}
	}
}

//
// ---- the real-input kernel ----
//

// paddedLen is the transform length of a linear correlation or
// convolution of n >= 1 output samples: the next power of two, and at
// least 2 so the half-length transform has a point.
func paddedLen(n int) int {
	return max(2, NextPowerOfTwo(n))
}

// realSpectrum writes the m/2+1 spectrum bins of x zero-padded to the
// power of two m >= 2 (len(x) <= m) into dst: the even and odd samples
// packed as one m/2-point complex series, its forward FFT, then the split
// of each bin pair (k, m/2-k) into the two bins of the real spectrum.
func realSpectrum(x []float64, m int, dst []complex128) {
	h := m / 2
	dst = dst[:h+1]
	z := dst[:h]
	j := 0
	for ; 2*j+1 < len(x); j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	if 2*j < len(x) {
		z[j] = complex(x[2*j], 0)
		j++
	}
	clear(z[j:])
	radix2(z, false)

	// With Z the packed transform, E[k] = (Z[k] + conj Z[h-k])/2 is the
	// spectrum of the even samples and O[k] = (Z[k] - conj Z[h-k])/2i that
	// of the odd ones; X[k] = E[k] + W^k O[k] and X[h-k] = conj(E[k] -
	// W^k O[k]) for W = exp(-2πi/m), the last stage of the size-m table.
	w := twiddles(m, false)[h-1:]
	z0 := dst[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k < h-k; k++ {
		a, b := dst[k], cmplx.Conj(dst[h-k])
		s, d := a+b, a-b
		t := w[k] * complex(imag(d), -real(d))
		e, f := s+t, s-t
		dst[k] = complex(0.5*real(e), 0.5*imag(e))
		dst[h-k] = complex(0.5*real(f), -0.5*imag(f))
	}
	if h >= 2 {
		dst[h/2] = cmplx.Conj(dst[h/2])
	}
}

// correlate runs the shared steps of every cross-correlation route on the
// m/2+1-bin spectra a and b of two real series padded to m: the product
// a·conj(b), its merge into one m/2-point complex spectrum written to z
// (len m/2, which may alias a or b), and the unnormalized half-length
// inverse FFT of z. Afterwards real(z[j]) and imag(z[j]) hold m times the
// circular correlation at shifts 2j and 2j+1 (see unpack).
func correlate(a, b, z []complex128) {
	h := len(z)
	a, b = a[:h+1], b[:h+1]
	// With P = a·conj(b), the m-point inverse of P has even samples from
	// P[k] + P[k+h] and odd samples from W^-k (P[k] - P[k+h]), W^-1 =
	// exp(2πi/m), and P[k+h] = conj P[h-k]: z[k] = S + iW^-k D for
	// S = P[k] + conj P[h-k], D = P[k] - conj P[h-k], and z[h-k] = conj(S -
	// iW^-k D). Bins 0 and h are real.
	w := twiddles(2*h, true)[h-1:]
	p0 := real(a[0]) * real(b[0])
	ph := real(a[h]) * real(b[h])
	for k := 1; k < h-k; k++ {
		pk := a[k] * cmplx.Conj(b[k])
		pj := cmplx.Conj(a[h-k] * cmplx.Conj(b[h-k]))
		s, d := pk+pj, pk-pj
		t := w[k] * d
		t = complex(-imag(t), real(t))
		z[k] = s + t
		z[h-k] = cmplx.Conj(s - t)
	}
	if h >= 2 {
		p := a[h/2] * cmplx.Conj(b[h/2])
		z[h/2] = complex(2*real(p), -2*imag(p))
	}
	z[0] = complex(p0+ph, p0-ph)
	radix2(z, true)
}

// unpack writes samples lo, lo+1, ... of the correlation that correlate
// left in z, scaled by 1/m, into dst: sample 2j is real(z[j]) and sample
// 2j+1 is imag(z[j]).
func unpack(dst []float64, z []complex128, lo int) {
	if len(dst) == 0 {
		return
	}
	scale := 1 / float64(2*len(z))
	i := 0
	if lo&1 == 1 {
		dst[0] = imag(z[lo>>1]) * scale
		i = 1
	}
	src := z[(lo+i)>>1:]
	for ; i+1 < len(dst); i += 2 {
		c := src[0]
		dst[i] = real(c) * scale
		dst[i+1] = imag(c) * scale
		src = src[1:]
	}
	if i < len(dst) {
		dst[i] = real(src[0]) * scale
	}
}

// unwrapShifts writes the shifts -neg..pos-1 of the circular correlation
// correlate left in z into dst[:neg+pos] and returns it: the negative
// shifts wrap to the tail of the m-point sequence.
func unwrapShifts(dst []float64, z []complex128, neg, pos int) []float64 {
	dst = dst[:neg+pos]
	unpack(dst[:neg], z, 2*len(z)-neg)
	unpack(dst[neg:], z, 0)
	return dst
}

// CrossCorrelation returns the full cross-correlation sequence of x and y,
// of length len(x)+len(y)-1. Entry k (0-based) corresponds to shift
// s = k - (len(y) - 1) of y relative to x:
//
//	cc[k] = sum_i x[i] * y[i-s]
//
// so the zero shift (aligned series) sits at index len(y)-1. The computation
// uses the zero-padded real-input kernel and runs in O(n log n).
func CrossCorrelation(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	n := len(x) + len(y) - 1
	m := paddedLen(n)
	fx, fy := halfSpectra(x, y, m)
	correlate(fx, fy, fx[:m/2])
	return unwrapShifts(make([]float64, n), fx[:m/2], len(y)-1, len(x))
}

// halfSpectra returns the m/2+1-bin spectra of x and y padded to m, in one
// allocation.
func halfSpectra(x, y []float64, m int) (fx, fy []complex128) {
	h := m / 2
	buf := make([]complex128, 2*(h+1))
	fx, fy = buf[:h+1], buf[h+1:]
	realSpectrum(x, m, fx)
	realSpectrum(y, m, fy)
	return fx, fy
}

// CrossCorrelationNaive computes the same sequence as CrossCorrelation by
// direct O(n*m) summation. It is used in tests and ablation benchmarks.
func CrossCorrelationNaive(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	n := len(x) + len(y) - 1
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		s := k - (len(y) - 1)
		var sum float64
		for i := range x {
			j := i - s
			if j >= 0 && j < len(y) {
				sum += x[i] * y[j]
			}
		}
		out[k] = sum
	}
	return out
}

// SlidingPlan caches the padded half spectrum of a long series for
// repeated sliding-dot-product scans with fixed-length queries — the access
// pattern of MASS and the matrix-profile engines, where one series is
// scanned by many windows. Reset costs one forward transform of the
// series; each scan then costs one forward transform of the query plus one
// inverse, instead of re-transforming the series every time. The zero
// value is ready for Reset.
type SlidingPlan struct {
	n, w, m int
	freq    []complex128 // m/2+1 bins
}

// Reset re-targets the plan (the zero value included) at a new series and
// window length, reusing the spectrum buffer when capacity allows so warm
// engines stay allocation-free across joins of the same size.
func (p *SlidingPlan) Reset(t []float64, w int) {
	n := len(t)
	if w < 1 || w > n {
		panic(fmt.Sprintf("fft: sliding window %d out of range for series length %d", w, n))
	}
	m := paddedLen(n + w - 1)
	p.n, p.w, p.m = n, w, m
	if cap(p.freq) < m/2+1 {
		p.freq = make([]complex128, m/2+1)
	}
	p.freq = p.freq[:m/2+1]
	realSpectrum(t, m, p.freq)
}

// PaddedLen returns the padded transform length m; SlidingDots scratch
// holds one half spectrum, PaddedLen()/2+1 values.
func (p *SlidingPlan) PaddedLen() int { return p.m }

// SlidingDots writes the sliding dot products of q (len = Window) against
// every window of the planned series t — dst[s] = dot(q, t[s:s+w]) for
// s in [0, n-w] — into dst (cap >= n-w+1), using buf (cap >=
// PaddedLen()/2+1, the query's half spectrum) as scratch, and returns
// dst[:n-w+1]. The padded length
// and the steps match CrossCorrelation(t, q) at the non-negative shifts
// exactly, so the two routes produce bitwise-identical dot products and
// callers can swap freely between them.
func (p *SlidingPlan) SlidingDots(q, dst []float64, buf []complex128) []float64 {
	if len(q) != p.w {
		panic(fmt.Sprintf("fft: sliding plan window %d, got query length %d", p.w, len(q)))
	}
	h := p.m / 2
	buf = buf[:h+1]
	realSpectrum(q, p.m, buf)
	correlate(p.freq, buf, buf[:h])
	dst = dst[:p.n-p.w+1]
	unpack(dst, buf[:h], 0)
	return dst
}

// Plan caches the half spectrum of a fixed-length reference signal so
// repeated cross-correlations against many query series skip its forward
// transform. It is the prepared state of the sliding measures, of SINK and
// of k-Shape's shape extraction.
type Plan struct {
	n    int          // series length
	m    int          // padded transform length, a power of two >= 2
	freq []complex128 // m/2+1 bins
}

// NewPlan precomputes the padded half spectrum of x for cross-correlations
// against series of the same length. The empty series gets an empty plan
// whose cross-correlations are the empty sequence, matching
// CrossCorrelation.
func NewPlan(x []float64) *Plan {
	n := len(x)
	if n == 0 {
		return &Plan{}
	}
	m := paddedLen(2*n - 1)
	freq := make([]complex128, m/2+1)
	realSpectrum(x, m, freq)
	return &Plan{n: n, m: m, freq: freq}
}

// Len returns the series length the plan was built for.
func (p *Plan) Len() int { return p.n }

// PaddedLen returns the padded transform length m of the plan (0 for the
// empty plan). CrossCorrelateTo scratch holds the half-length transform,
// PaddedLen()/2 values.
func (p *Plan) PaddedLen() int { return p.m }

// CrossCorrelate computes the full cross-correlation sequence of the planned
// series x against y (len(y) must equal the plan length), bitwise equal to
// CrossCorrelation(x, y).
func (p *Plan) CrossCorrelate(y []float64) []float64 {
	if len(y) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, got series length %d", p.n, len(y)))
	}
	if p.n == 0 {
		return nil
	}
	h := p.m / 2
	fy := make([]complex128, h+1)
	realSpectrum(y, p.m, fy)
	correlate(p.freq, fy, fy[:h])
	return unwrapShifts(make([]float64, 2*p.n-1), fy[:h], p.n-1, p.n)
}

// CrossCorrelateTo computes the cross-correlation sequence between two
// planned series (both plans must share the same length) without further
// forward transforms: one spectrum product and merge, one half-length
// inverse transform, one shift unwrap. It writes the sequence into dst
// (cap >= 2n-1) using buf (cap >= PaddedLen()/2) as scratch and returns
// dst[:2n-1]; the empty plan returns dst[:0].
func (p *Plan) CrossCorrelateTo(q *Plan, dst []float64, buf []complex128) []float64 {
	if q.n != p.n {
		panic(fmt.Sprintf("fft: plan lengths differ: %d vs %d", p.n, q.n))
	}
	if p.n == 0 {
		return dst[:0]
	}
	z := buf[:p.m/2]
	correlate(p.freq, q.freq, z)
	return unwrapShifts(dst, z, p.n-1, p.n)
}

// ccScratch is the working set of one pooled cross-correlation: the
// half-length complex transform buffer and the 2n-1 output sequence.
type ccScratch struct {
	buf []complex128
	cc  []float64
}

// ccPool recycles ccScratch between CrossCorrelateReduce calls. Contents
// are unspecified on Get; CrossCorrelateTo writes every cell it reads.
var ccPool = sync.Pool{New: func() any { return new(ccScratch) }}

// CrossCorrelateReduce computes the cross-correlation sequence of two
// planned series exactly as CrossCorrelateTo does, into pooled scratch, and
// returns reduce applied to it. The sequence is valid only while reduce
// runs and must not be retained. Warm calls allocate nothing, and the
// method is safe for concurrent use, so prepared per-pair measures (SINK,
// the sliding NCC family) call it for every pair.
func (p *Plan) CrossCorrelateReduce(q *Plan, reduce func(cc []float64) float64) float64 {
	sc := ccPool.Get().(*ccScratch)
	defer ccPool.Put(sc)
	// The empty plan needs no scratch: its sequence is empty, and 2n-1
	// would be negative.
	if p.n > 0 {
		if cap(sc.buf) < p.m/2 {
			sc.buf = make([]complex128, p.m/2)
		}
		if cap(sc.cc) < 2*p.n-1 {
			sc.cc = make([]float64, 2*p.n-1)
		}
	}
	return reduce(p.CrossCorrelateTo(q, sc.cc, sc.buf))
}
