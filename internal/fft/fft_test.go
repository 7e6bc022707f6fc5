package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// dftNaive is the O(n^2) reference DFT.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 17: 32, 1024: 1024, 1025: 2048}
	for n, want := range cases {
		if got := NextPowerOfTwo(n); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestNextPowerOfTwoPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	NextPowerOfTwo(0)
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		x := randComplex(rng, n)
		want := dftNaive(x)
		got := append([]complex128(nil), x...)
		radix2(got, false)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-7*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d: radix2[%d] = %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestInverseRoundTrip: the unnormalized inverse of the forward transform
// is n times the input.
func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 256} {
		x := randComplex(rng, n)
		orig := append([]complex128(nil), x...)
		radix2(x, false)
		radix2(x, true)
		for i := range x {
			x[i] /= complex(float64(n), 0)
			if cmplx.Abs(x[i]-orig[i]) > 1e-8 {
				t.Fatalf("n=%d: round trip [%d] = %v, want %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// Parseval: sum |x|^2 == (1/n) sum |X|^2 for the unnormalized forward DFT.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 << rng.Intn(8)
		x := randComplex(rng, n)
		var timeE float64
		for _, v := range x {
			timeE += real(v)*real(v) + imag(v)*imag(v)
		}
		radix2(x, false)
		var freqE float64
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return approxEq(timeE, freqE/float64(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForwardLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 << rng.Intn(7)
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		radix2(x, false)
		radix2(y, false)
		radix2(sum, false)
		for i := range sum {
			if cmplx.Abs(sum[i]-(x[i]+y[i])) > 1e-7*(1+cmplx.Abs(sum[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCrossCorrelationMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 8, 17, 50, 64, 100} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		want := CrossCorrelationNaive(x, y)
		got := CrossCorrelation(x, y)
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(got), len(want))
		}
		for k := range want {
			if !approxEq(got[k], want[k], 1e-8) {
				t.Fatalf("n=%d: cc[%d] = %g, want %g", n, k, got[k], want[k])
			}
		}
	}
}

func TestCrossCorrelationUnequalLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 37)
	y := make([]float64, 61)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	want := CrossCorrelationNaive(x, y)
	got := CrossCorrelation(x, y)
	for k := range want {
		if !approxEq(got[k], want[k], 1e-8) {
			t.Fatalf("cc[%d] = %g, want %g", k, got[k], want[k])
		}
	}
}

func TestCrossCorrelationZeroShiftIsDotProduct(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 0, 1, -1}
	cc := CrossCorrelation(x, y)
	wantDot := 1*2 + 2*0 + 3*1 + 4*(-1)
	if !approxEq(cc[len(y)-1], float64(wantDot), eps) {
		t.Fatalf("zero-shift cc = %g, want %d", cc[len(y)-1], wantDot)
	}
}

func TestCrossCorrelationSelfPeakAtZeroShift(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(80)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		cc := CrossCorrelation(x, x)
		peak := cc[n-1]
		for _, v := range cc {
			if v > peak+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCrossCorrelationEmpty(t *testing.T) {
	if got := CrossCorrelation(nil, []float64{1}); got != nil {
		t.Errorf("expected nil for empty x, got %v", got)
	}
	if got := CrossCorrelation([]float64{1}, nil); got != nil {
		t.Errorf("expected nil for empty y, got %v", got)
	}
}

func TestPlanMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 73
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	want := CrossCorrelation(x, y)
	p := NewPlan(x)
	if p.Len() != n {
		t.Fatalf("plan length %d, want %d", p.Len(), n)
	}
	got := p.CrossCorrelate(y)
	for k := range want {
		if !approxEq(got[k], want[k], 1e-8) {
			t.Fatalf("plan cc[%d] = %g, want %g", k, got[k], want[k])
		}
	}
	q := NewPlan(y)
	got2 := p.CrossCorrelateTo(q, make([]float64, 2*n-1), make([]complex128, p.PaddedLen()/2))
	for k := range want {
		if !approxEq(got2[k], want[k], 1e-8) {
			t.Fatalf("plan-plan cc[%d] = %g, want %g", k, got2[k], want[k])
		}
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	p := NewPlan([]float64{1, 2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	p.CrossCorrelate([]float64{1, 2})
}

func BenchmarkForwardPow2(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randComplex(rng, 1024)
	buf := make([]complex128, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		radix2(buf, false)
	}
}

// TestCrossCorrelateToBitwiseAndAllocFree pins the two plan-pair entry
// points against each other: CrossCorrelateReduce over pooled scratch sees
// bitwise the sequence CrossCorrelateTo writes into caller buffers, and
// neither allocates once warm.
func TestCrossCorrelateToBitwiseAndAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 17, 64, 100} {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		p, q := NewPlan(x), NewPlan(y)
		// The half-length transform needs a point, so n = 1 pads to 2.
		if want := max(2, NextPowerOfTwo(2*n-1)); p.PaddedLen() != want {
			t.Fatalf("n=%d: PaddedLen = %d, want %d", n, p.PaddedLen(), want)
		}
		dst := make([]float64, 2*n-1)
		buf := make([]complex128, p.PaddedLen()/2)
		want := append([]float64(nil), p.CrossCorrelateTo(q, dst, buf)...)
		var got []float64
		p.CrossCorrelateReduce(q, func(cc []float64) float64 {
			got = append([]float64(nil), cc...)
			return 0
		})
		if len(got) != len(want) {
			t.Fatalf("n=%d: length %d, want %d", n, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("n=%d: pooled cc[%d] = %v, want bitwise %v", n, k, got[k], want[k])
			}
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { p.CrossCorrelateTo(q, dst, buf) }); allocs != 0 {
			t.Errorf("n=%d: CrossCorrelateTo allocates %v per run", n, allocs)
		}
		sum := func(cc []float64) float64 { return cc[0] }
		if allocs := testing.AllocsPerRun(20, func() { p.CrossCorrelateReduce(q, sum) }); allocs != 0 {
			t.Errorf("n=%d: warm CrossCorrelateReduce allocates %v per run", n, allocs)
		}
	}
}

func TestCrossCorrelateToEmptyPlan(t *testing.T) {
	p, q := NewPlan(nil), NewPlan(nil)
	if p.PaddedLen() != 0 {
		t.Fatalf("empty plan PaddedLen = %d", p.PaddedLen())
	}
	got := p.CrossCorrelateTo(q, make([]float64, 1), nil)
	if len(got) != 0 {
		t.Fatalf("empty-plan cross-correlation length %d, want 0", len(got))
	}
	// The pooled entry must not size scratch from 2*0-1.
	if n := p.CrossCorrelateReduce(q, func(cc []float64) float64 { return float64(len(cc)) }); n != 0 {
		t.Fatalf("empty-plan pooled cross-correlation length %v, want 0", n)
	}
}

// TestCrossCorrelateReduceConcurrent runs pooled cross-correlations of
// mixed lengths from several goroutines at once (run under -race by make
// check-race) and requires each to equal the serial result bitwise: the
// pool hands every call its own scratch, whatever size the previous user
// left it.
func TestCrossCorrelateReduceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var plans []*Plan
	for _, n := range []int{0, 1, 5, 16, 33, 64} {
		for k := 0; k < 3; k++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			plans = append(plans, NewPlan(x))
		}
	}
	// checksum folds the whole sequence, so a shared or stale buffer shows.
	checksum := func(cc []float64) float64 {
		var s float64
		for k, v := range cc {
			s += float64(k+1) * v
		}
		return s
	}
	type pair struct{ i, j int }
	var pairs []pair
	for i := range plans {
		for j := range plans {
			if plans[i].Len() == plans[j].Len() {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	want := make([]float64, len(pairs))
	for k, pr := range pairs {
		want[k] = plans[pr.i].CrossCorrelateReduce(plans[pr.j], checksum)
	}
	const goroutines = 4
	got := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]float64, len(pairs))
			for rep := 0; rep < 5; rep++ {
				// Each goroutine walks the pairs from a different offset, so
				// calls of different lengths interleave on the pool.
				for k := range pairs {
					idx := (k + g*len(pairs)/goroutines) % len(pairs)
					pr := pairs[idx]
					out[idx] = plans[pr.i].CrossCorrelateReduce(plans[pr.j], checksum)
				}
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for g, out := range got {
		for k := range want {
			if math.Float64bits(out[k]) != math.Float64bits(want[k]) {
				t.Fatalf("goroutine %d pair %v: %v, serial %v", g, pairs[k], out[k], want[k])
			}
		}
	}
}

// chainRadix2 is the radix-2 transform as it was before the twiddle
// cache, kept verbatim as the reference: every block rebuilds its twiddles
// through the serial w *= wl chain the cache stores.
func chainRadix2(x []complex128, inverse bool) {
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

// chainTransform returns chainRadix2 applied to a copy of x.
func chainTransform(x []complex128, inverse bool) []complex128 {
	x = append([]complex128(nil), x...)
	chainRadix2(x, inverse)
	return x
}

// sameComplexBits compares two transforms part by part: equal bits, or
// NaN in both. A NaN's sign and payload may differ, since the compiled
// butterfly may order its commutative operands differently.
func sameComplexBits(a, b []complex128) int {
	same := func(u, v float64) bool {
		return math.Float64bits(u) == math.Float64bits(v) || (math.IsNaN(u) && math.IsNaN(v))
	}
	for i := range a {
		if !same(real(a[i]), real(b[i])) || !same(imag(a[i]), imag(b[i])) {
			return i
		}
	}
	return -1
}

// specialComplex returns n random values with ±0 and ±Inf mixed in.
func specialComplex(rng *rand.Rand, n int) []complex128 {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	x := randComplex(rng, n)
	for i := range x {
		re, im := real(x[i]), imag(x[i])
		if rng.Intn(8) == 0 {
			re = specials[rng.Intn(len(specials))]
		}
		if rng.Intn(8) == 0 {
			im = specials[rng.Intn(len(specials))]
		}
		x[i] = complex(re, im)
	}
	return x
}

// TestTwiddleCacheKeepsChainBits requires radix2 in both directions on the
// cached twiddles to give the chain reference's bits at every power-of-two
// size from 1 to 8192, on random input and on input with ±0 and ±Inf
// mixed in (whose transforms hold NaNs, compared by position).
func TestTwiddleCacheKeepsChainBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 8192; n <<= 1 {
		for _, x := range [][]complex128{randComplex(rng, n), specialComplex(rng, n)} {
			for _, inverse := range []bool{false, true} {
				want := chainTransform(x, inverse)
				got := append([]complex128(nil), x...)
				radix2(got, inverse)
				if i := sameComplexBits(got, want); i >= 0 {
					t.Fatalf("n=%d inverse=%v: [%d] = %v, chain reference %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTwiddleCacheConcurrentFill empties the twiddle cache and races its
// first fill: goroutines transform sizes in different orders, so tables
// grow under concurrent readers (make check-race runs this under -race),
// and every result must keep the chain reference's bits.
func TestTwiddleCacheConcurrentFill(t *testing.T) {
	for i := range twiddleTable {
		twiddleTable[i].Store(nil)
	}
	rng := rand.New(rand.NewSource(14))
	sizes := []int{2, 4096, 16, 256, 1, 8192, 64, 1024, 8, 512}
	inputs := make([][]complex128, len(sizes))
	want := make([][2][]complex128, len(sizes))
	for i, n := range sizes {
		inputs[i] = specialComplex(rng, n)
		want[i] = [2][]complex128{chainTransform(inputs[i], false), chainTransform(inputs[i], true)}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sizes {
				i := (k + 3*g) % len(sizes)
				for d, inverse := range []bool{false, true} {
					got := append([]complex128(nil), inputs[i]...)
					radix2(got, inverse)
					if j := sameComplexBits(got, want[i][d]); j >= 0 {
						t.Errorf("goroutine %d n=%d inverse=%v: [%d] = %v, chain reference %v",
							g, sizes[i], inverse, j, got[j], want[i][d][j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
