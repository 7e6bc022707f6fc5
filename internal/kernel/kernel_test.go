package kernel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/measure"
)

func randSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestRBFIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(1)), 30)
	if d := (RBF{Gamma: 1}).Distance(x, x); d != 0 {
		t.Fatalf("RBF(x,x) = %g", d)
	}
}

func TestRBFRangeAndMonotonicity(t *testing.T) {
	x := []float64{0, 0, 0}
	near := []float64{0.1, 0, 0}
	far := []float64{5, 5, 5}
	r := RBF{Gamma: 0.5}
	dn, df := r.Distance(x, near), r.Distance(x, far)
	if dn <= 0 || dn >= df || df > 1 {
		t.Fatalf("RBF ordering wrong: near=%g far=%g", dn, df)
	}
}

func TestRBFGammaEffect(t *testing.T) {
	x := []float64{0, 0}
	y := []float64{1, 0}
	if (RBF{Gamma: 0.01}).Distance(x, y) >= (RBF{Gamma: 10}).Distance(x, y) {
		t.Fatal("larger gamma must increase the distance of a fixed pair")
	}
}

func TestSINKIdentityIsZero(t *testing.T) {
	x := dataset.ZNormalize(randSeries(rand.New(rand.NewSource(2)), 50))
	d := SINK{Gamma: 5}.Distance(x, x)
	if math.Abs(d) > 1e-9 {
		t.Fatalf("SINK(x,x) = %g, want 0", d)
	}
}

func TestSINKShiftInvariance(t *testing.T) {
	// Like NCCc, SINK should see a shifted bump as very similar.
	m := 128
	x := make([]float64, m)
	for i := 40; i < 60; i++ {
		x[i] = 1
	}
	shifted := make([]float64, m)
	copy(shifted[20:], x[:m-20])
	zx, zs := dataset.ZNormalize(x), dataset.ZNormalize(shifted)
	s := SINK{Gamma: 10}
	dShift := s.Distance(zx, zs)
	rng := rand.New(rand.NewSource(3))
	dRand := s.Distance(zx, dataset.ZNormalize(randSeries(rng, m)))
	if dShift >= dRand {
		t.Fatalf("SINK shifted %g should be < random %g", dShift, dRand)
	}
}

func TestSINKPreparedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randSeries(rng, 40)
	y := randSeries(rng, 40)
	s := SINK{Gamma: 3}
	want := s.Distance(x, y)
	got := s.PreparedDistance(s.Prepare(x), s.Prepare(y))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("prepared %g != direct %g", got, want)
	}
}

func TestSINKSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randSeries(rng, 30)
	y := randSeries(rng, 30)
	s := SINK{Gamma: 5}
	d1, d2 := s.Distance(x, y), s.Distance(y, x)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("SINK not symmetric: %g vs %g", d1, d2)
	}
}

func TestSINKZeroSeries(t *testing.T) {
	zero := make([]float64, 16)
	x := randSeries(rand.New(rand.NewSource(6)), 16)
	if d := (SINK{Gamma: 5}).Distance(x, zero); math.IsNaN(d) {
		t.Fatal("SINK with zero series must be defined")
	}
}

func TestGAKIdentityIsZero(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(7)), 30)
	d := GAK{Sigma: 1}.Distance(x, x)
	if math.Abs(d) > 1e-9 {
		t.Fatalf("GAK(x,x) = %g, want 0", d)
	}
}

func TestGAKNonNegativeNormalized(t *testing.T) {
	// Normalized log-kernel distance is >= 0 (Cauchy-Schwarz for kernels).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		return GAK{Sigma: 1}.Distance(x, y) >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGAKSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randSeries(rng, 25)
	y := randSeries(rng, 25)
	g := GAK{Sigma: 0.5}
	d1, d2 := g.Distance(x, y), g.Distance(y, x)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("GAK not symmetric: %g vs %g", d1, d2)
	}
}

func TestGAKNoUnderflowOnLongSeries(t *testing.T) {
	// The log-space recursion must stay finite where the naive
	// probability-space DP would underflow to zero.
	rng := rand.New(rand.NewSource(9))
	x := randSeries(rng, 512)
	y := randSeries(rng, 512)
	d := GAK{Sigma: 0.5}.Distance(x, y)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("GAK on long series = %g", d)
	}
}

func TestGAKRanksAlignedCloser(t *testing.T) {
	m := 64
	base := make([]float64, m)
	for i := range base {
		base[i] = math.Sin(2 * math.Pi * float64(i) / 16)
	}
	noisy := make([]float64, m)
	rng := rand.New(rand.NewSource(10))
	for i := range noisy {
		noisy[i] = base[i] + 0.1*rng.NormFloat64()
	}
	random := randSeries(rng, m)
	g := GAK{Sigma: 1}
	if g.Distance(base, noisy) >= g.Distance(base, random) {
		t.Fatal("GAK must rank the noisy copy closer than noise")
	}
}

func TestGAKPreparedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randSeries(rng, 30)
	y := randSeries(rng, 30)
	g := GAK{Sigma: 1}
	want := g.Distance(x, y)
	got := g.PreparedDistance(g.Prepare(x), g.Prepare(y))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("prepared %g != direct %g", got, want)
	}
}

func TestLogSumExp3(t *testing.T) {
	got := logSumExp3(math.Log(1), math.Log(2), math.Log(3))
	if math.Abs(got-math.Log(6)) > 1e-12 {
		t.Fatalf("logSumExp3 = %g, want log(6)", got)
	}
	// All -inf stays -inf.
	ninf := math.Inf(-1)
	if v := logSumExp3(ninf, ninf, ninf); !math.IsInf(v, -1) {
		t.Fatalf("logSumExp3(-inf...) = %g", v)
	}
	// Huge values do not overflow.
	if v := logSumExp3(1000, 1000, 1000); math.IsInf(v, 0) {
		t.Fatal("logSumExp3 overflowed")
	}
}

func TestKDTWIdentityIsZero(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(12)), 30)
	d := KDTW{Gamma: 0.125}.Distance(x, x)
	if math.Abs(d) > 1e-9 {
		t.Fatalf("KDTW(x,x) = %g, want 0", d)
	}
}

func TestKDTWSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randSeries(rng, 25)
	y := randSeries(rng, 25)
	k := KDTW{Gamma: 0.125}
	d1, d2 := k.Distance(x, y), k.Distance(y, x)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("KDTW not symmetric: %g vs %g", d1, d2)
	}
}

func TestKDTWRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		d := KDTW{Gamma: 0.125}.Distance(x, y)
		// Normalized kernel distance lies in [0, 1] up to degenerate cases
		// mapped to exactly 1.
		return d >= -1e-9 && d <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKDTWRanksWarpedCloser(t *testing.T) {
	m := 64
	x := make([]float64, m)
	warped := make([]float64, m)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 32)
		w := float64(i) + 3*math.Sin(2*math.Pi*float64(i)/float64(m))
		warped[i] = math.Sin(2 * math.Pi * w / 32)
	}
	rng := rand.New(rand.NewSource(14))
	random := randSeries(rng, m)
	k := KDTW{Gamma: 1}
	if k.Distance(x, warped) >= k.Distance(x, random) {
		t.Fatal("KDTW must rank the warped copy closer than noise")
	}
}

func TestKDTWPreparedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := randSeries(rng, 30)
	y := randSeries(rng, 30)
	k := KDTW{Gamma: 0.5}
	want := k.Distance(x, y)
	got := k.PreparedDistance(k.Prepare(x), k.Prepare(y))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("prepared %g != direct %g", got, want)
	}
}

func TestAllFourKernels(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("All() = %d, want 4", len(all))
	}
	rng := rand.New(rand.NewSource(16))
	x := randSeries(rng, 20)
	y := randSeries(rng, 20)
	seen := map[string]bool{}
	for _, m := range all {
		if seen[m.Name()] {
			t.Errorf("duplicate %s", m.Name())
		}
		seen[m.Name()] = true
		if d := m.Distance(x, y); math.IsNaN(d) {
			t.Errorf("%s returned NaN", m.Name())
		}
		if m.Distance(x, x) > m.Distance(x, y)+1e-9 {
			t.Errorf("%s: d(x,x) > d(x,y)", m.Name())
		}
	}
}

func TestKernelsImplementStateful(t *testing.T) {
	// SINK, GAK, and KDTW carry per-series state; RBF does not need it.
	for _, m := range []measure.Measure{SINK{Gamma: 5}, GAK{Sigma: 1}, KDTW{Gamma: 0.125}} {
		if _, ok := m.(measure.Stateful); !ok {
			t.Errorf("%s must implement measure.Stateful", m.Name())
		}
	}
}

func BenchmarkSINK(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	s := SINK{Gamma: 5}
	px, py := s.Prepare(x), s.Prepare(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PreparedDistance(px, py)
	}
}

func BenchmarkGAK(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	x := randSeries(rng, 128)
	y := randSeries(rng, 128)
	g := GAK{Sigma: 1}
	px, py := g.Prepare(x), g.Prepare(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PreparedDistance(px, py)
	}
}

func BenchmarkKDTW(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	x := randSeries(rng, 128)
	y := randSeries(rng, 128)
	k := KDTW{Gamma: 0.125}
	px, py := k.Prepare(x), k.Prepare(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.PreparedDistance(px, py)
	}
}

// gakNaiveProbSpace is the probability-space GAK recursion, used only to
// demonstrate why the production implementation works in log space.
func gakNaiveProbSpace(x, y []float64, sigma float64) float64 {
	m := len(x)
	twoSigmaSq := 2 * sigma * sigma
	localK := func(a, b float64) float64 {
		d := a - b
		e := d * d / twoSigmaSq
		h := math.Exp(-e)
		return h / (2 - h)
	}
	prev := make([]float64, m+1)
	cur := make([]float64, m+1)
	prev[0] = 1
	for i := 1; i <= m; i++ {
		cur[0] = 0
		for j := 1; j <= m; j++ {
			cur[j] = (prev[j] + cur[j-1] + prev[j-1]) * localK(x[i-1], y[j-1])
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

func TestAblationGAKLogSpaceVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// Short series: both implementations agree (log of naive == logK).
	x := randSeries(rng, 20)
	y := randSeries(rng, 20)
	g := GAK{Sigma: 1}
	naive := gakNaiveProbSpace(x, y, 1)
	if naive <= 0 {
		t.Fatalf("naive GAK unexpectedly non-positive on short series: %g", naive)
	}
	logNaive := math.Log(naive)
	logFast := g.logK(x, y)
	if math.Abs(logNaive-logFast) > 1e-6*(1+math.Abs(logNaive)) {
		t.Fatalf("log-space %g != log(naive) %g", logFast, logNaive)
	}
	// Long series: the probability-space DP underflows to zero while the
	// log-space recursion stays finite — the reason for the design choice.
	xl := randSeries(rng, 1500)
	yl := randSeries(rng, 1500)
	naiveLong := gakNaiveProbSpace(xl, yl, 0.5)
	if naiveLong != 0 {
		t.Fatalf("naive DP expected to underflow at length 1500, got %g", naiveLong)
	}
	if v := g.logK(xl, yl); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("log-space GAK not finite on long series: %g", v)
	}
}
