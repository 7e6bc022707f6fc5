// Package fft implements the fast Fourier transform for complex and real
// sequences of arbitrary length, together with the FFT-based
// cross-correlation primitive used by the sliding distance measures and the
// SINK kernel.
//
// Power-of-two lengths use an iterative radix-2 Cooley-Tukey transform;
// other lengths fall back to Bluestein's chirp-z algorithm, which reduces an
// arbitrary-length DFT to a power-of-two circular convolution. Both paths
// are O(n log n).
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
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

// Forward computes the in-place forward DFT of x and returns x.
// The transform is unnormalized: Inverse(Forward(x)) == x.
func Forward(x []complex128) []complex128 {
	transform(x, false)
	return x
}

// Inverse computes the in-place inverse DFT of x (including the 1/n
// normalization) and returns x.
func Inverse(x []complex128) []complex128 {
	transform(x, true)
	return x
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if IsPowerOfTwo(n) {
		radix2(x, inverse)
	} else {
		bluestein(x, inverse)
	}
	if inverse {
		scale := 1 / float64(n)
		for i := range x {
			x[i] *= complex(scale, 0)
		}
	}
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
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length / 2
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// bluestein computes an unnormalized DFT of arbitrary length via the
// chirp-z transform, using a power-of-two convolution internally.
func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp factors w[k] = exp(sign * i * pi * k^2 / n). Compute k^2 mod 2n
	// to keep the argument small and the twiddles accurate for large k.
	w := make([]complex128, n)
	m2 := 2 * n
	for k := 0; k < n; k++ {
		sq := (k * k) % m2
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(sq)/float64(n)))
	}
	m := NextPowerOfTwo(2*n - 1)
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		bk := cmplx.Conj(w[k])
		b[k] = bk
		if k > 0 {
			b[m-k] = bk
		}
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invm := 1 / float64(m)
	for k := 0; k < n; k++ {
		x[k] = a[k] * complex(invm, 0) * w[k]
	}
}

// ForwardRealPadded computes the DFT of x zero-padded to length n.
// It panics if n < len(x).
func ForwardRealPadded(x []float64, n int) []complex128 {
	if n < len(x) {
		panic(fmt.Sprintf("fft: pad length %d < input length %d", n, len(x)))
	}
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return Forward(c)
}

// CrossCorrelation returns the full cross-correlation sequence of x and y,
// of length len(x)+len(y)-1. Entry k (0-based) corresponds to shift
// s = k - (len(y) - 1) of y relative to x:
//
//	cc[k] = sum_i x[i] * y[i-s]
//
// so the zero shift (aligned series) sits at index len(y)-1. The computation
// uses zero-padded FFTs and runs in O(n log n).
func CrossCorrelation(x, y []float64) []float64 {
	n := len(x) + len(y) - 1
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	m := NextPowerOfTwo(n)
	fx := ForwardRealPadded(x, m)
	fy := ForwardRealPadded(y, m)
	for i := range fx {
		fx[i] *= cmplx.Conj(fy[i])
	}
	Inverse(fx)
	// fx now holds correlations at shifts 0..len(x)-1 followed (wrapped) by
	// negative shifts -(len(y)-1)..-1 at the tail of the length-m buffer.
	out := make([]float64, n)
	ly := len(y)
	for s := -(ly - 1); s < len(x); s++ {
		idx := s
		if idx < 0 {
			idx += m
		}
		out[s+ly-1] = real(fx[idx])
	}
	return out
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

// Convolve returns the linear convolution of x and y, of length
// len(x)+len(y)-1, computed via FFT.
func Convolve(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	n := len(x) + len(y) - 1
	m := NextPowerOfTwo(n)
	fx := ForwardRealPadded(x, m)
	fy := ForwardRealPadded(y, m)
	for i := range fx {
		fx[i] *= fy[i]
	}
	Inverse(fx)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(fx[i])
	}
	return out
}

// SlidingPlan caches the padded forward transform of a long series for
// repeated sliding-dot-product scans with fixed-length queries — the access
// pattern of MASS and the matrix-profile engines, where one series is
// scanned by many windows. Construction costs one forward FFT of the
// series; each scan then costs one forward transform of the query plus one
// inverse, instead of re-transforming the series every time.
type SlidingPlan struct {
	n, w, m int
	freq    []complex128
}

// NewSlidingPlan builds the plan for series t and query length w,
// 1 <= w <= len(t).
func NewSlidingPlan(t []float64, w int) *SlidingPlan {
	p := &SlidingPlan{}
	p.Reset(t, w)
	return p
}

// Reset re-targets the plan (the zero value included) at a new series and
// window length, reusing the spectrum buffer when capacity allows so warm
// engines stay allocation-free across joins of the same size.
func (p *SlidingPlan) Reset(t []float64, w int) {
	n := len(t)
	if w < 1 || w > n {
		panic(fmt.Sprintf("fft: sliding window %d out of range for series length %d", w, n))
	}
	m := NextPowerOfTwo(n + w - 1)
	p.n, p.w, p.m = n, w, m
	if cap(p.freq) < m {
		p.freq = make([]complex128, m)
	}
	p.freq = p.freq[:m]
	for i := n; i < m; i++ {
		p.freq[i] = 0
	}
	for i, v := range t {
		p.freq[i] = complex(v, 0)
	}
	Forward(p.freq)
}

// Len returns the planned series length.
func (p *SlidingPlan) Len() int { return p.n }

// Window returns the planned query length.
func (p *SlidingPlan) Window() int { return p.w }

// PaddedLen returns the padded FFT length; callers sizing SlidingDots
// scratch buffers use it.
func (p *SlidingPlan) PaddedLen() int { return p.m }

// SlidingDots writes the sliding dot products of q (len = Window) against
// every window of the planned series t — dst[s] = dot(q, t[s:s+w]) for
// s in [0, n-w] — into dst (cap >= n-w+1), using buf (len >= PaddedLen) as
// FFT scratch, and returns dst[:n-w+1]. The padded length and operation
// order match CrossCorrelation(t, q) at the non-negative shifts exactly,
// so the two routes produce bitwise-identical dot products and callers can
// swap freely between them.
func (p *SlidingPlan) SlidingDots(q, dst []float64, buf []complex128) []float64 {
	if len(q) != p.w {
		panic(fmt.Sprintf("fft: sliding plan window %d, got query length %d", p.w, len(q)))
	}
	buf = buf[:p.m]
	for i := p.w; i < p.m; i++ {
		buf[i] = 0
	}
	for i, v := range q {
		buf[i] = complex(v, 0)
	}
	Forward(buf)
	for i := range buf {
		buf[i] = p.freq[i] * cmplx.Conj(buf[i])
	}
	Inverse(buf)
	out := p.n - p.w + 1
	dst = dst[:out]
	for s := 0; s < out; s++ {
		dst[s] = real(buf[s])
	}
	return dst
}

// Plan caches the forward transform of a fixed-length reference signal so
// repeated cross-correlations against many query series reuse the padded
// FFT buffer size. It is used by the sliding measures when building full
// dissimilarity matrices.
type Plan struct {
	n    int // series length
	m    int // padded FFT length, power of two
	freq []complex128
}

// NewPlan precomputes the padded FFT of x for cross-correlations against
// series of the same length. The empty series gets an empty plan whose
// cross-correlations are the empty sequence, matching CrossCorrelation.
func NewPlan(x []float64) *Plan {
	n := len(x)
	if n == 0 {
		return &Plan{}
	}
	m := NextPowerOfTwo(2*n - 1)
	return &Plan{n: n, m: m, freq: ForwardRealPadded(x, m)}
}

// Len returns the series length the plan was built for.
func (p *Plan) Len() int { return p.n }

// PaddedLen returns the padded FFT length of the plan's spectrum (0 for the
// empty plan). Callers sizing scratch buffers for CrossCorrelateTo use it.
func (p *Plan) PaddedLen() int { return p.m }

// CrossCorrelate computes the full cross-correlation sequence of the planned
// series x against y (len(y) must equal the plan length), equivalent to
// CrossCorrelation(x, y).
func (p *Plan) CrossCorrelate(y []float64) []float64 {
	if len(y) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, got series length %d", p.n, len(y)))
	}
	if p.n == 0 {
		return nil
	}
	fy := ForwardRealPadded(y, p.m)
	for i := range fy {
		fy[i] = p.freq[i] * cmplx.Conj(fy[i])
	}
	Inverse(fy)
	n := 2*p.n - 1
	out := make([]float64, n)
	for s := -(p.n - 1); s < p.n; s++ {
		idx := s
		if idx < 0 {
			idx += p.m
		}
		out[s+p.n-1] = real(fy[idx])
	}
	return out
}

// CrossCorrelateWith computes the cross-correlation sequence between two
// planned series (both plans must share the same length), avoiding any
// further forward transforms.
func (p *Plan) CrossCorrelateWith(q *Plan) []float64 {
	if q.n != p.n {
		panic(fmt.Sprintf("fft: plan lengths differ: %d vs %d", p.n, q.n))
	}
	if p.n == 0 {
		return nil
	}
	return p.CrossCorrelateTo(q, make([]float64, 2*p.n-1), make([]complex128, p.m))
}

// CrossCorrelateTo is CrossCorrelateWith writing the cross-correlation
// sequence into dst (len >= 2n-1) using buf (len >= PaddedLen) as FFT
// scratch, so all-pairs callers like the Gram engine run allocation-free.
// The arithmetic — pointwise spectrum product, inverse transform, shift
// unwrap — is step-for-step the one CrossCorrelateWith performs, so the two
// entry points return bitwise-identical sequences. It returns dst[:2n-1].
func (p *Plan) CrossCorrelateTo(q *Plan, dst []float64, buf []complex128) []float64 {
	if q.n != p.n {
		panic(fmt.Sprintf("fft: plan lengths differ: %d vs %d", p.n, q.n))
	}
	if p.n == 0 {
		return dst[:0]
	}
	buf = buf[:p.m]
	for i := range buf {
		buf[i] = p.freq[i] * cmplx.Conj(q.freq[i])
	}
	Inverse(buf)
	dst = dst[:2*p.n-1]
	for s := -(p.n - 1); s < p.n; s++ {
		idx := s
		if idx < 0 {
			idx += p.m
		}
		dst[s+p.n-1] = real(buf[idx])
	}
	return dst
}
