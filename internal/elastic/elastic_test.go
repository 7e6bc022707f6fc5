package elastic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/measure"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func randSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// dtwNaive is the O(m^2)-memory reference DTW without a band.
func dtwNaive(x, y []float64) float64 {
	m, n := len(x), len(y)
	inf := math.Inf(1)
	d := make([][]float64, m+1)
	for i := range d {
		d[i] = make([]float64, n+1)
		for j := range d[i] {
			d[i][j] = inf
		}
	}
	d[0][0] = 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			c := x[i-1] - y[j-1]
			d[i][j] = c*c + math.Min(d[i-1][j-1], math.Min(d[i-1][j], d[i][j-1]))
		}
	}
	return d[m][n]
}

func TestDTWMatchesNaiveFullWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(60)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		got := DTW{DeltaPercent: 100}.Distance(x, y)
		want := dtwNaive(x, y)
		if !almostEq(got, want) {
			t.Fatalf("DTW = %g, want %g", got, want)
		}
	}
}

func TestDTWIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(2)), 40)
	for _, d := range []int{0, 5, 10, 100} {
		if v := (DTW{DeltaPercent: d}).Distance(x, x); !almostEq(v, 0) {
			t.Fatalf("DTW[d=%d](x,x) = %g", d, v)
		}
	}
}

func TestDTWZeroWindowIsSquaredED(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randSeries(rng, 30)
	y := randSeries(rng, 30)
	// Window 0 percent clamps to 1, but window 1 still allows warping.
	// Instead verify DTW <= squared ED for any window (warping only helps).
	var sq float64
	for i := range x {
		d := x[i] - y[i]
		sq += d * d
	}
	for _, d := range []int{5, 10, 100} {
		if v := (DTW{DeltaPercent: d}).Distance(x, y); v > sq+1e-9 {
			t.Fatalf("DTW[d=%d] = %g exceeds squared ED %g", d, v, sq)
		}
	}
}

func TestDTWWindowMonotone(t *testing.T) {
	// A wider band can only lower the optimal path cost.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(50)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		d5 := DTW{DeltaPercent: 5}.Distance(x, y)
		d10 := DTW{DeltaPercent: 10}.Distance(x, y)
		d100 := DTW{DeltaPercent: 100}.Distance(x, y)
		return d100 <= d10+1e-9 && d10 <= d5+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDTWHandlesWarpedCopies(t *testing.T) {
	// A locally stretched copy should be much closer under DTW than ED.
	m := 64
	x := make([]float64, m)
	y := make([]float64, m)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 32)
		// y is x sampled with a nonlinear (warped) time axis.
		warped := float64(i) + 4*math.Sin(2*math.Pi*float64(i)/float64(m))
		y[i] = math.Sin(2 * math.Pi * warped / 32)
	}
	var sq float64
	for i := range x {
		d := x[i] - y[i]
		sq += d * d
	}
	dtw := DTW{DeltaPercent: 20}.Distance(x, y)
	if dtw > sq/10 {
		t.Fatalf("DTW %g not much smaller than squared ED %g on warped copy", dtw, sq)
	}
}

func TestLBKeoghIsLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(50)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		wPct := 5 + rng.Intn(20)
		w := WindowSize(wPct, n)
		lb := LBKeogh(x, y, w)
		dtw := DTW{DeltaPercent: wPct}.Distance(x, y)
		return lb <= dtw+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLBKeoghIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(4)), 30)
	if lb := LBKeogh(x, x, 3); lb != 0 {
		t.Fatalf("LBKeogh(x,x) = %g", lb)
	}
}

func TestLCSSIdenticalIsZero(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(5)), 30)
	d := LCSS{DeltaPercent: 10, Epsilon: 0.01}.Distance(x, x)
	if !almostEq(d, 0) {
		t.Fatalf("LCSS(x,x) = %g", d)
	}
}

func TestLCSSRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		d := LCSS{DeltaPercent: 10, Epsilon: 0.2}.Distance(x, y)
		return d >= -1e-12 && d <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLCSSEpsilonMonotone(t *testing.T) {
	// A larger threshold can only lengthen the common subsequence.
	rng := rand.New(rand.NewSource(6))
	x := randSeries(rng, 40)
	y := randSeries(rng, 40)
	prev := 2.0
	for _, eps := range []float64{0.01, 0.1, 0.5, 1, 2} {
		d := LCSS{DeltaPercent: 100, Epsilon: eps}.Distance(x, y)
		if d > prev+1e-12 {
			t.Fatalf("LCSS not monotone in epsilon: %g at eps=%g after %g", d, eps, prev)
		}
		prev = d
	}
	// Huge epsilon matches everything.
	if d := (LCSS{DeltaPercent: 100, Epsilon: 1e9}).Distance(x, y); !almostEq(d, 0) {
		t.Fatalf("LCSS with huge epsilon = %g, want 0", d)
	}
}

func TestEDRKnownValues(t *testing.T) {
	// Identical: zero edits.
	x := []float64{1, 2, 3}
	if d := (EDR{Epsilon: 0.1}).Distance(x, x); d != 0 {
		t.Fatalf("EDR(x,x) = %g", d)
	}
	// One point off beyond epsilon: one substitution.
	y := []float64{1, 5, 3}
	if d := (EDR{Epsilon: 0.1}).Distance(x, y); d != 1 {
		t.Fatalf("EDR one-sub = %g, want 1", d)
	}
	// Everything within epsilon: zero.
	z := []float64{1.05, 2.05, 2.95}
	if d := (EDR{Epsilon: 0.1}).Distance(x, z); d != 0 {
		t.Fatalf("EDR within eps = %g, want 0", d)
	}
}

func TestEDRBoundedByLength(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		d := EDR{Epsilon: 0.25}.Distance(x, y)
		return d >= 0 && d <= float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestERPIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(7)), 30)
	if d := (ERP{G: 0}).Distance(x, x); !almostEq(d, 0) {
		t.Fatalf("ERP(x,x) = %g", d)
	}
}

func TestERPIsMetricTriangle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		z := randSeries(rng, n)
		e := ERP{G: 0}
		return e.Distance(x, z) <= e.Distance(x, y)+e.Distance(y, z)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestERPLowerBoundedByL1Difference(t *testing.T) {
	// With g=0, ERP(x, y) >= | sum|x| - sum|y| | (known ERP property).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		var sx, sy float64
		for i := range x {
			sx += math.Abs(x[i])
			sy += math.Abs(y[i])
		}
		return ERP{G: 0}.Distance(x, y) >= math.Abs(sx-sy)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMSMIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(8)), 30)
	if d := (MSM{C: 0.5}).Distance(x, x); !almostEq(d, 0) {
		t.Fatalf("MSM(x,x) = %g", d)
	}
}

func TestMSMKnownSmallCase(t *testing.T) {
	// x = [1], y = [3]: single move of cost |1-3| = 2.
	if d := (MSM{C: 0.5}).Distance([]float64{1}, []float64{3}); !almostEq(d, 2) {
		t.Fatalf("MSM single move = %g, want 2", d)
	}
}

func TestMSMTriangleInequality(t *testing.T) {
	// MSM is a metric (its defining property versus DTW/LCSS/EDR).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		z := randSeries(rng, n)
		m := MSM{C: 0.5}
		return m.Distance(x, z) <= m.Distance(x, y)+m.Distance(y, z)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMSMSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randSeries(rng, 25)
	y := randSeries(rng, 25)
	m := MSM{C: 1}
	if !almostEq(m.Distance(x, y), m.Distance(y, x)) {
		t.Fatalf("MSM not symmetric: %g vs %g", m.Distance(x, y), m.Distance(y, x))
	}
}

func TestMSMCostFunction(t *testing.T) {
	m := MSM{C: 0.5}
	// new between a and b: cost c.
	if got := m.msmCost(2, 1, 3); got != 0.5 {
		t.Fatalf("msmCost inside = %g", got)
	}
	if got := m.msmCost(2, 3, 1); got != 0.5 {
		t.Fatalf("msmCost inside reversed = %g", got)
	}
	// new outside: c + distance to nearer endpoint.
	if got := m.msmCost(5, 1, 3); got != 0.5+2 {
		t.Fatalf("msmCost outside = %g", got)
	}
}

func TestTWEIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(10)), 30)
	if d := (TWE{Lambda: 1, Nu: 0.0001}).Distance(x, x); !almostEq(d, 0) {
		t.Fatalf("TWE(x,x) = %g", d)
	}
}

func TestTWESymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randSeries(rng, 25)
	y := randSeries(rng, 25)
	tw := TWE{Lambda: 0.5, Nu: 0.001}
	if !almostEq(tw.Distance(x, y), tw.Distance(y, x)) {
		t.Fatalf("TWE not symmetric: %g vs %g", tw.Distance(x, y), tw.Distance(y, x))
	}
}

func TestTWETriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		z := randSeries(rng, n)
		tw := TWE{Lambda: 1, Nu: 0.001}
		return tw.Distance(x, z) <= tw.Distance(x, y)+tw.Distance(y, z)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTWEStiffnessEffect(t *testing.T) {
	// Higher stiffness penalizes warping, so distance is non-decreasing in nu.
	rng := rand.New(rand.NewSource(12))
	x := randSeries(rng, 30)
	y := randSeries(rng, 30)
	prev := -1.0
	for _, nu := range []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 1} {
		d := TWE{Lambda: 1, Nu: nu}.Distance(x, y)
		if d < prev-1e-9 {
			t.Fatalf("TWE decreased with stiffness: %g at nu=%g after %g", d, nu, prev)
		}
		prev = d
	}
}

func TestSwaleIdenticalBeatsDifferent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := randSeries(rng, 30)
	y := randSeries(rng, 30)
	s := Swale{Epsilon: 0.2, P: 5, R: 1}
	if s.Distance(x, x) >= s.Distance(x, y) {
		t.Fatalf("Swale(x,x)=%g not smaller than Swale(x,y)=%g", s.Distance(x, x), s.Distance(x, y))
	}
	// Perfect match similarity is m*R, so distance is -m*R.
	if d := s.Distance(x, x); !almostEq(d, -30) {
		t.Fatalf("Swale(x,x) = %g, want -30", d)
	}
}

func TestSwaleGapPenalty(t *testing.T) {
	// All points beyond epsilon: best alignment is forced to pay penalties.
	x := []float64{0, 0, 0}
	y := []float64{10, 10, 10}
	s := Swale{Epsilon: 0.1, P: 5, R: 1}
	d := s.Distance(x, y)
	if d <= 0 {
		t.Fatalf("all-mismatch Swale distance = %g, want positive (penalties)", d)
	}
}

func TestAllSevenMeasures(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All() = %d measures, want 7", len(all))
	}
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(14))
	x := randSeries(rng, 20)
	y := randSeries(rng, 20)
	for _, m := range all {
		if seen[m.Name()] {
			t.Errorf("duplicate name %s", m.Name())
		}
		seen[m.Name()] = true
		if d := m.Distance(x, y); math.IsNaN(d) {
			t.Errorf("%s returned NaN", m.Name())
		}
	}
}

func TestElasticMeasuresRankSelfFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := randSeries(rng, 25)
	y := randSeries(rng, 25)
	for _, m := range All() {
		if m.Distance(x, x) > m.Distance(x, y)+1e-9 {
			t.Errorf("%s: d(x,x) > d(x,y)", m.Name())
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	ms := []measure.Measure{
		DTW{DeltaPercent: 10}, LCSS{DeltaPercent: 5, Epsilon: 0.1},
		EDR{Epsilon: 0.1}, ERP{G: 0}, MSM{C: 0.5},
		TWE{Lambda: 1, Nu: 0.001}, Swale{Epsilon: 0.1, P: 5, R: 1},
	}
	for _, m := range ms {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", m.Name())
				}
			}()
			m.Distance([]float64{1, 2}, []float64{1, 2, 3})
		}()
	}
}

func TestWindowSize(t *testing.T) {
	if WindowSize(100, 50) != 50 {
		t.Error("delta=100 must give full window")
	}
	if WindowSize(10, 100) != 10 {
		t.Error("delta=10 of 100 must give 10")
	}
	if WindowSize(1, 10) != 1 {
		t.Error("window must be at least 1")
	}
}

func BenchmarkDTWFull(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	d := DTW{DeltaPercent: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

func BenchmarkDTWBand10(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	d := DTW{DeltaPercent: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Distance(x, y)
	}
}

func BenchmarkMSM(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	m := MSM{C: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

// TestUnbandedDTW: on equal-length finite input UnbandedDTW is bitwise the
// unconstrained Distance; it also aligns unequal lengths, and where an
// all-+Inf row makes Distance stop at +Inf it evaluates through to the NaN
// of a later row. A NaN row alone is live, so Distance evaluates through
// it too.
func TestUnbandedDTW(t *testing.T) {
	x, y := randomSeries(41, 50), randomSeries(42, 50)
	if got, want := UnbandedDTW(x, y), (DTW{DeltaPercent: 100}).Distance(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("UnbandedDTW %v != DTW(100) %v", got, want)
	}
	if d := UnbandedDTW(x, y[:20]); math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("unequal lengths: %v", d)
	}
	if d := UnbandedDTW(nil, y); d != 0 {
		t.Fatalf("empty side: %v, want 0", d)
	}
	xn := append([]float64(nil), x...)
	xn[20] = math.NaN()
	if d := (DTW{DeltaPercent: 100}).Distance(xn, y); !math.IsNaN(d) {
		t.Fatalf("Distance on a NaN row = %v, want NaN", d)
	}
	xn[10] = math.Inf(1)
	if d := (DTW{DeltaPercent: 100}).Distance(xn, y); !math.IsInf(d, 1) {
		t.Fatalf("Distance past an all-+Inf row = %v, want +Inf", d)
	}
	if d := UnbandedDTW(xn, y); !math.IsNaN(d) {
		t.Fatalf("UnbandedDTW past an all-+Inf row = %v, want NaN", d)
	}
}
