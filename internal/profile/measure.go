// Package profile implements STOMP-style streaming matrix-profile
// computation: all-pairs subsequence similarity joins where the first row
// of window cross terms is seeded once (by FFT for dot-product measures)
// and every subsequent row advances with an O(1)-per-cell diagonal update,
// for O(n^2) total work instead of STAMP's O(n^2 log n) one-FFT-per-row.
// It is the repository's one subsequence engine: a distance profile (the
// MASS query, Mueen's Algorithm for Similarity Search) is one seeded row,
// TopK reads matches off it, and motifs and discords are read off a
// self-join.
//
// Following Akbarinia & Villar ("Efficient Matrix Profile Computation
// Using Different Distance Functions"), the engine is generic over a small
// profile-measure interface: z-normalized Euclidean distance (the classic
// matrix profile), non-normalized Euclidean, and p-norm variants all share
// the same streaming skeleton and differ only in their cross term and
// finalization. Self-joins apply the standard w/2 trivial-match exclusion
// zone; AB-joins (query series against target series) apply none.
package profile

import (
	"fmt"
	"math"
)

// Measure is the pluggable distance of the matrix-profile engine: a
// per-window-pair cross term with an O(1) diagonal recurrence (drop the
// leading sample pair, add the trailing one) plus a finalization from the
// cross term and precomputed window moments to a distance. The engine
// streams cross terms row by row and the measure finalizes whole rows, so
// the O(n^2) inner loops pay no per-cell interface dispatch.
type Measure interface {
	Name() string

	// InitCross computes the cross term of a[i:i+w] vs b[j:j+w] by direct
	// O(w) summation. The engine uses it to seed block leading rows and
	// the j = 0 column, and to repair cells whose streamed value passed
	// through non-finite samples.
	InitCross(a, b []float64, i, j, w int) float64

	// UpdateRow advances cross in place from row i-1 to row i for columns
	// [1, cols): iterating j downward, cross[j] becomes cross[j-1] minus
	// the dropped leading term plus the new trailing term, so no second
	// buffer is needed. The j = 0 column has no diagonal predecessor and
	// is the caller's responsibility.
	UpdateRow(cross []float64, a, b []float64, i, w, cols int)

	// Distance finalizes the cross term of the single cell (i, j).
	Distance(cross float64, i, j int, sa, sb *WindowStats) float64

	// DistanceRow finalizes a whole row i of cross terms into dst (same
	// length), the batched form of Distance.
	DistanceRow(cross, dst []float64, i int, sa, sb *WindowStats)

	// DotCross reports whether the cross term is the plain sliding dot
	// product, letting the engine seed leading rows with one FFT
	// cross-correlation instead of direct summation.
	DotCross() bool
}

// WindowStats holds the precomputed per-window statistics of one series at
// a fixed window length: the running-sum moments the measures finalize
// distances from, the zero-variance flags behind the z-normalized ceiling
// convention, and non-finite prefix counts the engine uses to repair
// streamed cross terms around NaN/Inf samples.
type WindowStats struct {
	W     int
	Mean  []float64 // per-window mean
	Std   []float64 // per-window standard deviation
	SumSq []float64 // per-window sum of squares
	Const []bool    // zero-variance windows (relative-epsilon test)
	nf    []int     // prefix counts of non-finite samples, length n+1
	hasNF bool
}

// compute fills the tables for series x at window w, reusing backing
// arrays.
func (s *WindowStats) compute(x []float64, w int) {
	n := len(x)
	wins := n - w + 1
	s.W = w
	s.Mean = resizeFloat(s.Mean, wins)
	s.Std = resizeFloat(s.Std, wins)
	s.SumSq = resizeFloat(s.SumSq, wins)
	s.Const = resizeBool(s.Const, wins)
	s.nf = resizeInt(s.nf, n+1)
	s.nf[0] = 0
	s.hasNF = false
	for i, v := range x {
		c := s.nf[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			c++
			s.hasNF = true
		}
		s.nf[i+1] = c
	}
	var sum, sumSq float64
	for i := 0; i < wins; i++ {
		switch {
		case i == 0 || (s.hasNF && s.poisoned(i-1)):
			// (Re)build the sums directly: the running recurrence cannot
			// recover after dropping a non-finite sample — NaN minus NaN
			// stays NaN — so every window after a poisoned one restarts.
			sum, sumSq = 0, 0
			for k := i; k < i+w; k++ {
				sum += x[k]
				sumSq += x[k] * x[k]
			}
		default:
			sum += x[i+w-1] - x[i-1]
			sumSq += x[i+w-1]*x[i+w-1] - x[i-1]*x[i-1]
		}
		mean := sum / float64(w)
		meanSq := sumSq / float64(w)
		v := meanSq - mean*mean
		if v < 0 {
			v = 0
		}
		s.Mean[i] = mean
		s.Std[i] = math.Sqrt(v)
		s.SumSq[i] = sumSq
		s.Const[i] = isConstantVar(v, meanSq)
	}
}

// poisoned reports whether window i contains a non-finite sample.
func (s *WindowStats) poisoned(i int) bool { return s.nf[i+s.W]-s.nf[i] > 0 }

// isConstantVar reports whether a window variance is zero up to the
// rounding noise of the running-sum computation, relative to the window's
// mean square.
func isConstantVar(variance, meanSq float64) bool {
	return variance <= 1e-12*(meanSq+1)
}

// dotCross is the cross-term kernel shared by the dot-product measures.
type dotCross struct{}

func (dotCross) DotCross() bool { return true }

func (dotCross) InitCross(a, b []float64, i, j, w int) float64 {
	var dot float64
	for k := 0; k < w; k++ {
		dot += a[i+k] * b[j+k]
	}
	return dot
}

func (dotCross) UpdateRow(cross []float64, a, b []float64, i, w, cols int) {
	drop := a[i-1]
	add := a[i+w-1]
	for j := cols - 1; j >= 1; j-- {
		cross[j] = cross[j-1] - drop*b[j-1] + add*b[j+w-1]
	}
}

type zNormEuclidean struct{ dotCross }

// ZNormEuclidean returns the classic matrix-profile measure: z-normalized
// Euclidean distance, finalized from the sliding dot product through the
// MASS identity sqrt(2w(1-corr)) with the sqrt(2w) ceiling for
// zero-variance windows.
func ZNormEuclidean() Measure { return zNormEuclidean{} }

func (zNormEuclidean) Name() string { return "znorm-euclidean" }

func (zNormEuclidean) Distance(cross float64, i, j int, sa, sb *WindowStats) float64 {
	w := float64(sa.W)
	if sa.Const[i] || sb.Const[j] {
		return math.Sqrt(2 * w)
	}
	corr := (cross - w*sa.Mean[i]*sb.Mean[j]) / (w * sa.Std[i] * sb.Std[j])
	if corr > 1 {
		corr = 1
	}
	if corr < -1 {
		corr = -1
	}
	return math.Sqrt(2 * w * (1 - corr))
}

func (zNormEuclidean) DistanceRow(cross, dst []float64, i int, sa, sb *WindowStats) {
	w := float64(sa.W)
	maxDist := math.Sqrt(2 * w)
	if sa.Const[i] {
		for j := range dst {
			dst[j] = maxDist
		}
		return
	}
	am, as := sa.Mean[i], sa.Std[i]
	for j := range dst {
		if sb.Const[j] {
			dst[j] = maxDist
			continue
		}
		corr := (cross[j] - w*am*sb.Mean[j]) / (w * as * sb.Std[j])
		if corr > 1 {
			corr = 1
		}
		if corr < -1 {
			corr = -1
		}
		dst[j] = math.Sqrt(2 * w * (1 - corr))
	}
}

type euclidean struct{ dotCross }

// Euclidean returns the non-normalized Euclidean profile measure
// (Akbarinia & Villar's first generalization): distances come from the
// same streamed dot products through
// sqrt(||a||^2 + ||b||^2 - 2 dot), clamped at zero against rounding.
func Euclidean() Measure { return euclidean{} }

func (euclidean) Name() string { return "euclidean" }

func (euclidean) Distance(cross float64, i, j int, sa, sb *WindowStats) float64 {
	d := sa.SumSq[i] + sb.SumSq[j] - 2*cross
	if d < 0 {
		d = 0
	}
	return math.Sqrt(d)
}

func (euclidean) DistanceRow(cross, dst []float64, i int, sa, sb *WindowStats) {
	ss := sa.SumSq[i]
	for j := range dst {
		d := ss + sb.SumSq[j] - 2*cross[j]
		if d < 0 {
			d = 0
		}
		dst[j] = math.Sqrt(d)
	}
}

type pNorm struct{ p float64 }

// PNorm returns the order-p Minkowski profile measure over raw windows,
// streamed through the |a-b|^p power sums directly (the Akbarinia & Villar
// p-norm recurrence): shifting both windows one step drops the leading
// term and adds the trailing one, so no dot product is involved and
// leading rows are seeded by direct summation rather than FFT.
func PNorm(p float64) Measure {
	if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
		panic(fmt.Sprintf("profile: p-norm order %v out of range", p))
	}
	return pNorm{p: p}
}

func (m pNorm) Name() string   { return fmt.Sprintf("pnorm-%g", m.p) }
func (m pNorm) DotCross() bool { return false }

func (m pNorm) pow(d float64) float64 {
	switch m.p {
	case 1:
		return math.Abs(d)
	case 2:
		return d * d
	case 3:
		a := math.Abs(d)
		return a * a * a
	default:
		return math.Pow(math.Abs(d), m.p)
	}
}

// dist is the cross-to-distance finalization: the p-th root, with small
// negative power sums (streaming cancellation noise) clamped to zero. NaN
// passes through untouched for the engine's sanitized-skip semantics.
func (m pNorm) dist(cross float64) float64 {
	if cross < 0 {
		cross = 0
	}
	switch m.p {
	case 1:
		return cross
	case 2:
		return math.Sqrt(cross)
	case 3:
		return math.Cbrt(cross)
	default:
		return math.Pow(cross, 1/m.p)
	}
}

func (m pNorm) InitCross(a, b []float64, i, j, w int) float64 {
	var s float64
	for k := 0; k < w; k++ {
		s += m.pow(a[i+k] - b[j+k])
	}
	return s
}

func (m pNorm) UpdateRow(cross []float64, a, b []float64, i, w, cols int) {
	drop := a[i-1]
	add := a[i+w-1]
	for j := cols - 1; j >= 1; j-- {
		cross[j] = cross[j-1] - m.pow(drop-b[j-1]) + m.pow(add-b[j+w-1])
	}
}

func (m pNorm) Distance(cross float64, i, j int, sa, sb *WindowStats) float64 {
	return m.dist(cross)
}

func (m pNorm) DistanceRow(cross, dst []float64, i int, sa, sb *WindowStats) {
	for j := range dst {
		dst[j] = m.dist(cross[j])
	}
}

func resizeFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
