// Package kernel implements the 4 kernel similarity measures of Section 8
// of the paper: the lock-step RBF kernel, the sliding SINK kernel (the
// shift-invariant kernel of GRAIL, built on the FFT cross-correlation), and
// the two elastic kernels GAK (global alignment, computed in log space for
// numerical stability) and KDTW (the regularized DTW kernel of Marteau &
// Gibet). Each kernel k is exposed as the dissimilarity 1 - k̂ where k̂ is
// the kernel normalized by its self-similarities, so the single 1-NN
// implementation of the evaluation layer serves kernels too.
package kernel

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/fft"
	"repro/internal/measure"
)

// normalized converts a raw kernel value and the two self-kernel values
// into the dissimilarity 1 - k(x,y)/sqrt(k(x,x)k(y,y)); degenerate
// self-kernels (0, underflow) give the maximum distance 1.
func normalized(kxy, kxx, kyy float64) float64 {
	den := math.Sqrt(kxx * kyy)
	if den == 0 || math.IsNaN(den) || math.IsInf(den, 0) {
		return 1
	}
	return 1 - kxy/den
}

//
// ---- RBF ----
//

// RBF is the radial basis function kernel k(x, y) = exp(-gamma*||x-y||^2),
// the general-purpose lock-step kernel of Table 6 (the one the paper finds
// significantly worse than NCCc). Its self-kernels are 1, so the distance
// is simply 1 - k.
type RBF struct {
	Gamma float64
}

// Name implements measure.Measure.
func (r RBF) Name() string { return fmt.Sprintf("rbf[g=%g]", r.Gamma) }

// Distance implements measure.Measure.
func (r RBF) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return 1 - math.Exp(-r.Gamma*s)
}

//
// ---- SINK ----
//

// SINK is the shift-invariant normalized kernel of GRAIL: the sum over all
// 2m-1 shifts of exp(gamma * ncc_w(x, y)) where ncc is the
// coefficient-normalized cross-correlation sequence, normalized by the
// self-kernels. Larger Gamma concentrates the kernel on the best alignment
// (recovering NCCc in the limit); small Gamma averages all alignments.
type SINK struct {
	Gamma float64
}

// Name implements measure.Measure.
func (s SINK) Name() string { return fmt.Sprintf("sink[g=%g]", s.Gamma) }

// sinkPrepared is SINK's per-series state: the FFT plan, the series norm,
// and the unnormalized self-kernel.
type sinkPrepared struct {
	plan *fft.Plan
	norm float64
	self float64 // unnormalized self-kernel value
}

// Prepare implements measure.Stateful. It allocates the plan (struct and
// spectrum) and the state; the self cross-correlation runs in pooled
// scratch.
func (s SINK) Prepare(x []float64) any {
	var ss float64
	for _, v := range x {
		ss += v * v
	}
	p := &sinkPrepared{plan: fft.NewPlan(x), norm: math.Sqrt(ss)}
	p.self = p.plan.CrossCorrelateReduce(p.plan, func(cc []float64) float64 {
		return s.sumExp(cc, p.norm*p.norm)
	})
	return p
}

// PreparedDistance implements measure.Stateful: one spectrum product, one
// inverse FFT and one sumExp in pooled scratch, so a warm call allocates
// nothing. This is SINK's one pair kernel: square and rectangular matrices,
// 1-NN and grid scans, snapshots, and GRAIL's landmark Gram and projections
// all run it.
func (s SINK) PreparedDistance(px, py any) float64 {
	a := px.(*sinkPrepared)
	b := py.(*sinkPrepared)
	kxy := a.plan.CrossCorrelateReduce(b.plan, func(cc []float64) float64 {
		return s.sumExp(cc, a.norm*b.norm)
	})
	return normalized(kxy, a.self, b.self)
}

// sumExp evaluates sum_w exp(gamma * cc_w / den) with a zero-denominator
// guard (zero series: every coefficient defined as 0). Each argument is
// gamma * cc_w / den as written: a hoisted gamma/den rounds it differently
// and overflows once den is subnormal (DESIGN.md §11). The exponential is
// the table method below, inline: each term is within 2 ulp of math.Exp of
// the same argument, and since every term is positive, the sum's relative
// error is at most the worst term's. Arguments that are NaN, ±Inf or
// beyond ±expMaxArg go to math.Exp, so overflow, underflow and NaN behave
// as math.Exp's.
func (s SINK) sumExp(cc []float64, den float64) float64 {
	var sum float64
	if den == 0 {
		return float64(len(cc)) // exp(0) per shift
	}
	for _, v := range cc {
		a := s.Gamma * v / den
		if !(math.Abs(a) <= expMaxArg) {
			sum += math.Exp(a)
			continue
		}
		// a = (k*expN + j)*ln2/expN + r with |r| <= ln2/(2*expN), so
		// exp(a) = 2^k * 2^(j/expN) * exp(r). Adding expShift rounds
		// a*expN/ln2 to the integer k*expN + j held in kd's low mantissa
		// bits; kd*expLn2HiN is exact, so r is a's residue to one rounding.
		kd := a*expInvLn2N + expShift
		ki := math.Float64bits(kd)
		kd -= expShift
		r := a - kd*expLn2HiN - kd*expLn2LoN
		// 2^(j/expN) from the table, with k added to its exponent field:
		// shifting ki-j left by 52-expBits moves k*expN to k<<52 and
		// pushes expShift's bits out of the word.
		j := ki % expN
		scale := math.Float64frombits(expTable[j] + (ki-j)<<(52-expBits))
		// exp(r)-1 to degree 4: the truncation is below
		// (ln2/(2*expN))^5/5! < 4e-17, relative.
		r2 := r * r
		sum += scale + scale*(r+r2*(0.5+r*(1.0/6)+r2*(1.0/24)))
	}
	return sum
}

// The table exponential of sumExp. expMaxArg keeps every result and every
// 2^k scale a normal float64 (e^±708 is about 3e307 and 3.3e-308);
// expLn2Hi is ln 2 to 32 significant bits, so kd*expLn2HiN is exact for
// |kd| < 2^21, and expLn2LoN is the rest of ln 2/expN, rounded once.
const (
	expBits    = 8
	expN       = 1 << expBits
	expMaxArg  = 708
	expShift   = 0x1.8p52
	expInvLn2N = expN / math.Ln2
	expLn2Hi   = 0x1.62e42feep-1
	expLn2HiN  = expLn2Hi / expN
	expLn2LoN  = (math.Ln2 - expLn2Hi) / expN
)

// expTable holds the bits of 2^(j/expN) for j = 0..expN-1, each rounded
// once from a 128-bit value: 2^(1/expN) is expBits square roots of 2, and
// entry j its j-th power.
var expTable = func() (t [expN]uint64) {
	step := new(big.Float).SetPrec(128).SetInt64(2)
	for i := 0; i < expBits; i++ {
		step.Sqrt(step)
	}
	p := new(big.Float).SetPrec(128).SetInt64(1)
	for j := range t {
		f, _ := p.Float64()
		t[j] = math.Float64bits(f)
		p.Mul(p, step)
	}
	return t
}()

// Distance implements measure.Measure.
func (s SINK) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	return s.PreparedDistance(s.Prepare(x), s.Prepare(y))
}

//
// ---- GAK ----
//

// GAK is Cuturi's (2011) triangular-free global alignment kernel, computed
// in log space (the logGAK recursion) so that long series do not underflow.
// Sigma is the bandwidth of the local Gaussian kernel (the gamma grid of
// Table 4). The distance is the normalized negative log kernel
// -(log k(x,y) - (log k(x,x) + log k(y,y))/2), which is >= 0.
type GAK struct {
	Sigma float64
}

// Name implements measure.Measure.
func (g GAK) Name() string { return fmt.Sprintf("gak[s=%g]", g.Sigma) }

// logK runs the log-space global alignment recursion and returns
// log k(x, y).
func (g GAK) logK(x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 0
	}
	twoSigmaSq := 2 * g.Sigma * g.Sigma
	// phi(i, j) = d^2/(2s^2) + log(2 - exp(-d^2/(2s^2))): the geometrically
	// divisible local kernel that keeps GAK positive definite.
	phi := func(a, b float64) float64 {
		d := a - b
		e := d * d / twoSigmaSq
		return e + math.Log(2-math.Exp(-e))
	}
	negInf := math.Inf(-1)
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	for j := range prev {
		prev[j] = negInf
	}
	prev[0] = 0
	for i := 1; i <= m; i++ {
		cur[0] = negInf
		for j := 1; j <= m; j++ {
			cur[j] = logSumExp3(prev[j], cur[j-1], prev[j-1]) - phi(x[i-1], y[j-1])
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// logSumExp3 returns log(e^a + e^b + e^c) stably.
func logSumExp3(a, b, c float64) float64 {
	max := a
	if b > max {
		max = b
	}
	if c > max {
		max = c
	}
	if math.IsInf(max, -1) {
		return max
	}
	return max + math.Log(math.Exp(a-max)+math.Exp(b-max)+math.Exp(c-max))
}

type gakPrepared struct {
	x    []float64
	self float64 // log k(x, x)
}

// Prepare implements measure.Stateful.
func (g GAK) Prepare(x []float64) any {
	return &gakPrepared{x: x, self: g.logK(x, x)}
}

// PreparedDistance implements measure.Stateful.
func (g GAK) PreparedDistance(px, py any) float64 {
	a := px.(*gakPrepared)
	b := py.(*gakPrepared)
	return -(g.logK(a.x, b.x) - (a.self+b.self)/2)
}

// Distance implements measure.Measure.
func (g GAK) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	return g.PreparedDistance(g.Prepare(x), g.Prepare(y))
}

//
// ---- KDTW ----
//

// KDTW is the regularized dynamic time warping kernel of Marteau & Gibet
// (2014): the sum of two recursions, an alignment term over all warping
// paths and a regularization term along the diagonal, with local kernel
// (exp(-nu*d^2) + epsilon)/(3*(1+epsilon)). Gamma plays the role of nu
// (Table 4's grid). The distance is 1 - k normalized by the self-kernels.
type KDTW struct {
	Gamma float64
}

// Name implements measure.Measure.
func (k KDTW) Name() string { return fmt.Sprintf("kdtw[g=%g]", k.Gamma) }

// kdtwEpsilon is the regularization constant of the reference
// implementation; it keeps the local kernel bounded away from zero so the
// products of long recursions do not vanish identically.
const kdtwEpsilon = 1e-3

// local returns the regularized local kernel value for points a and b.
func (k KDTW) local(a, b float64) float64 {
	d := a - b
	return (math.Exp(-k.Gamma*d*d) + kdtwEpsilon) / (3 * (1 + kdtwEpsilon))
}

// raw computes the unnormalized KDTW kernel value.
func (k KDTW) raw(x, y []float64) float64 {
	m := len(x)
	if m == 0 {
		return 1
	}
	// DP is the alignment recursion, DP1 the regularization recursion, and
	// diag[i] the local kernel on the aligned pair (x_i, y_i).
	diag := make([]float64, m+1)
	diag[0] = 1
	for i := 1; i <= m; i++ {
		diag[i] = k.local(x[i-1], y[i-1])
	}
	dpPrev := make([]float64, m+1)
	dpCur := make([]float64, m+1)
	dp1Prev := make([]float64, m+1)
	dp1Cur := make([]float64, m+1)
	dpPrev[0] = 1
	dp1Prev[0] = 1
	for j := 1; j <= m; j++ {
		dpPrev[j] = dpPrev[j-1] * k.local(x[0], y[j-1])
		dp1Prev[j] = dp1Prev[j-1] * diag[j]
	}
	for i := 1; i <= m; i++ {
		dpCur[0] = dpPrev[0] * k.local(x[i-1], y[0])
		dp1Cur[0] = dp1Prev[0] * diag[i]
		for j := 1; j <= m; j++ {
			lk := k.local(x[i-1], y[j-1])
			dpCur[j] = (dpPrev[j] + dpCur[j-1] + dpPrev[j-1]) * lk
			if i == j {
				dp1Cur[j] = dp1Prev[j-1]*lk + dp1Prev[j]*diag[i] + dp1Cur[j-1]*diag[j]
			} else {
				dp1Cur[j] = dp1Prev[j]*diag[i] + dp1Cur[j-1]*diag[j]
			}
		}
		dpPrev, dpCur = dpCur, dpPrev
		dp1Prev, dp1Cur = dp1Cur, dp1Prev
	}
	return dpPrev[m] + dp1Prev[m]
}

type kdtwPrepared struct {
	x    []float64
	self float64
}

// Prepare implements measure.Stateful.
func (k KDTW) Prepare(x []float64) any {
	return &kdtwPrepared{x: x, self: k.raw(x, x)}
}

// PreparedDistance implements measure.Stateful.
func (k KDTW) PreparedDistance(px, py any) float64 {
	a := px.(*kdtwPrepared)
	b := py.(*kdtwPrepared)
	return normalized(k.raw(a.x, b.x), a.self, b.self)
}

// Distance implements measure.Measure.
func (k KDTW) Distance(x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	return k.PreparedDistance(k.Prepare(x), k.Prepare(y))
}

// All returns one representative instance of each of the 4 kernel
// functions, at the paper's unsupervised parameter choices (Table 6).
func All() []measure.Measure {
	return []measure.Measure{
		KDTW{Gamma: 0.125},
		GAK{Sigma: 0.1},
		SINK{Gamma: 5},
		RBF{Gamma: 2},
	}
}
