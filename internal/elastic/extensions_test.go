package elastic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lockstep"
)

func TestDerivativeKnown(t *testing.T) {
	// Linear ramp has constant slope 1 everywhere.
	x := []float64{0, 1, 2, 3, 4}
	d := Derivative(x)
	for i, v := range d {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("derivative[%d] = %g, want 1", i, v)
		}
	}
	// Short series degrade to zeros.
	for _, short := range [][]float64{{}, {1}, {1, 2}} {
		for _, v := range Derivative(short) {
			if v != 0 {
				t.Fatalf("short derivative = %v", Derivative(short))
			}
		}
	}
}

func TestDDTWIgnoresOffset(t *testing.T) {
	// DDTW aligns slopes, so a constant offset between otherwise identical
	// series must vanish (DTW sees it fully).
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 50)
	y := make([]float64, 50)
	for i := range x {
		x[i] = math.Sin(float64(i) / 5)
		y[i] = x[i] + 10
	}
	_ = rng
	if d := (DDTW{DeltaPercent: 10}).Distance(x, y); d > 1e-9 {
		t.Fatalf("DDTW of offset copies = %g, want 0", d)
	}
	if d := (DTW{DeltaPercent: 10}).Distance(x, y); d < 100 {
		t.Fatalf("test setup broken: DTW should be large, got %g", d)
	}
}

func TestDDTWIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(2)), 30)
	if d := (DDTW{DeltaPercent: 100}).Distance(x, x); d != 0 {
		t.Fatalf("DDTW(x,x) = %g", d)
	}
}

func TestWDTWIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(3)), 30)
	if d := (WDTW{G: 0.05}).Distance(x, x); d != 0 {
		t.Fatalf("WDTW(x,x) = %g", d)
	}
}

func TestWDTWFlatWeightsEqualScaledDTW(t *testing.T) {
	// With G = 0 every phase difference receives weight WMax/2, so WDTW
	// reduces exactly to (WMax/2) * unconstrained DTW — a strong check of
	// the weighted DP.
	rng := rand.New(rand.NewSource(30))
	x := randSeries(rng, 40)
	y := randSeries(rng, 40)
	dtw := DTW{DeltaPercent: 100}.Distance(x, y)
	wdtw := WDTW{G: 0, WMax: 2}.Distance(x, y)
	if math.Abs(wdtw-dtw) > 1e-9*(1+dtw) {
		t.Fatalf("WDTW(G=0, WMax=2) = %g, want DTW = %g", wdtw, dtw)
	}
}

func TestWDTWBoundedByWMaxDTW(t *testing.T) {
	// Weights never exceed WMax, so the WDTW optimum costs at most WMax
	// times the unconstrained DTW optimum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		dtw := DTW{DeltaPercent: 100}.Distance(x, y)
		wdtw := WDTW{G: 0.05, WMax: 1}.Distance(x, y)
		return wdtw <= dtw+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWDTWSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randSeries(rng, 25)
	y := randSeries(rng, 25)
	w := WDTW{G: 0.05}
	if math.Abs(w.Distance(x, y)-w.Distance(y, x)) > 1e-9 {
		t.Fatal("WDTW not symmetric")
	}
}

func TestCIDCorrectionFactor(t *testing.T) {
	base := lockstep.Euclidean()
	c := CID{Base: base}
	// Equal complexity: correction factor 1.
	x := []float64{0, 1, 0, 1, 0}
	y := []float64{1, 0, 1, 0, 1}
	if math.Abs(c.Distance(x, y)-base.Distance(x, y)) > 1e-12 {
		t.Fatal("equal-complexity correction must be 1")
	}
	// A complex vs a simple series is penalized.
	flatish := []float64{0, 0.01, 0, 0.01, 0}
	spiky := []float64{0, 2, -2, 2, -2}
	if c.Distance(flatish, spiky) <= base.Distance(flatish, spiky) {
		t.Fatal("complexity mismatch must inflate the distance")
	}
}

func TestCIDFlatSeries(t *testing.T) {
	c := CID{Base: lockstep.Euclidean()}
	flat := []float64{1, 1, 1}
	other := []float64{0, 5, 0}
	if !math.IsInf(c.Distance(flat, other), 1) {
		t.Fatal("flat vs complex must be +Inf")
	}
	flat2 := []float64{2, 2, 2}
	if d := c.Distance(flat, flat2); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("flat vs flat = %g, want finite base distance", d)
	}
}

func TestComplexityEstimate(t *testing.T) {
	if ComplexityEstimate([]float64{1, 1, 1}) != 0 {
		t.Fatal("constant series has zero complexity")
	}
	// Diffs 3, -4: sqrt(9+16) = 5.
	if math.Abs(ComplexityEstimate([]float64{0, 3, -1})-5) > 1e-12 {
		t.Fatal("complexity estimate wrong")
	}
}

func TestEnvelopeMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 5 + rng.Intn(60)
		w := rng.Intn(m)
		y := randSeries(rng, m)
		upper, lower := envelope(y, w)
		for i := 0; i < m; i++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for j := max(0, i-w); j <= min(m-1, i+w); j++ {
				lo = math.Min(lo, y[j])
				hi = math.Max(hi, y[j])
			}
			if lower[i] != lo || upper[i] != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEnvelopeLBKeoghMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randSeries(rng, 80)
	y := randSeries(rng, 80)
	w := 8
	upper, lower := envelope(y, w)
	direct := naiveLBKeogh(x, y, w)
	fast := lbKeoghEnvelope(x, upper, lower, math.Inf(1))
	if math.Abs(direct-fast) > 1e-12 {
		t.Fatalf("envelope LB %g != direct %g", fast, direct)
	}
	// An abandoned evaluation stops at a partial sum that has reached the
	// cutoff and never exceeds the full bound.
	if part := lbKeoghEnvelope(x, upper, lower, fast/2); part < fast/2 || part > fast {
		t.Fatalf("abandoned LB %g outside [%g, %g]", part, fast/2, fast)
	}
}

func TestEnvelopeLBKeoghLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LBKeogh([]float64{1, 2}, []float64{1, 2, 3}, 1)
}

func TestLBKeoghEnvelopeBoundsDTW(t *testing.T) {
	// The search cascade relies on LB_Keogh(r, env(q)) <= DTW(q, r).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 8 + rng.Intn(40)
		q := randSeries(rng, m)
		r := randSeries(rng, m)
		pct := 5 + rng.Intn(20)
		w := WindowSize(pct, m)
		upper, lower := envelope(q, w)
		return lbKeoghEnvelope(r, upper, lower, math.Inf(1)) <= DTW{DeltaPercent: pct}.Distance(q, r)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDDBlendEndpoints(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := randSeries(rng, 40)
	y := randSeries(rng, 40)
	dtw := DTW{DeltaPercent: 10}.Distance(x, y)
	ddtw := DDTW{DeltaPercent: 10}.Distance(x, y)
	if got := (DDBlend{DeltaPercent: 10, Alpha: 0}).Distance(x, y); math.Abs(got-dtw) > 1e-12 {
		t.Fatalf("alpha=0 blend %g != DTW %g", got, dtw)
	}
	if got := (DDBlend{DeltaPercent: 10, Alpha: 1}).Distance(x, y); math.Abs(got-ddtw) > 1e-12 {
		t.Fatalf("alpha=1 blend %g != DDTW %g", got, ddtw)
	}
	half := DDBlend{DeltaPercent: 10, Alpha: 0.5}.Distance(x, y)
	if math.Abs(half-(dtw+ddtw)/2) > 1e-12 {
		t.Fatalf("alpha=0.5 blend %g != midpoint %g", half, (dtw+ddtw)/2)
	}
}

func TestDDBlendIdentity(t *testing.T) {
	x := randSeries(rand.New(rand.NewSource(32)), 30)
	if d := (DDBlend{DeltaPercent: 100, Alpha: 0.5}).Distance(x, x); d != 0 {
		t.Fatalf("blend identity = %g", d)
	}
}
