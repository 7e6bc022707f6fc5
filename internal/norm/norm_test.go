package norm

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/lockstep"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-10 }

func TestZScoreProperties(t *testing.T) {
	z := ZScore()
	out := z.Normalize([]float64{2, 4, 6, 8})
	var mean, ss float64
	for _, v := range out {
		mean += v
	}
	mean /= float64(len(out))
	for _, v := range out {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(len(out)))
	if !almostEq(mean, 0) || !almostEq(sd, 1) {
		t.Fatalf("zscore mean=%g sd=%g", mean, sd)
	}
}

func TestZScoreConstantAndEmpty(t *testing.T) {
	z := ZScore()
	for _, v := range z.Normalize([]float64{5, 5, 5}) {
		if v != 0 {
			t.Fatal("constant should be zeros")
		}
	}
	if len(z.Normalize(nil)) != 0 {
		t.Fatal("empty should stay empty")
	}
}

func TestZScoreInvariantToLinearTransform(t *testing.T) {
	// z-score must remove scale and translation: z(a*x+b) == z(x) for a > 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		a := 0.5 + rng.Float64()*5
		b := rng.NormFloat64() * 10
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = a*x[i] + b
		}
		zx := ZScore().Normalize(x)
		zy := ZScore().Normalize(y)
		for i := range zx {
			if math.Abs(zx[i]-zy[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMinMaxRange01(t *testing.T) {
	out := MinMax().Normalize([]float64{10, 20, 15})
	if !almostEq(out[0], 0) || !almostEq(out[1], 1) || !almostEq(out[2], 0.5) {
		t.Fatalf("minmax = %v", out)
	}
}

func TestMinMaxRangeAB(t *testing.T) {
	out := MinMaxRange(1, 2).Normalize([]float64{0, 10})
	if !almostEq(out[0], 1) || !almostEq(out[1], 2) {
		t.Fatalf("minmaxrange = %v", out)
	}
	// Constant series maps to a.
	out = MinMaxRange(1, 2).Normalize([]float64{7, 7})
	if out[0] != 1 || out[1] != 1 {
		t.Fatalf("constant minmaxrange = %v", out)
	}
}

func TestMinMaxBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
		}
		out := MinMax().Normalize(x)
		for _, v := range out {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeanNorm(t *testing.T) {
	out := MeanNorm().Normalize([]float64{0, 10})
	// mean=5, span=10 -> [-0.5, 0.5]
	if !almostEq(out[0], -0.5) || !almostEq(out[1], 0.5) {
		t.Fatalf("meannorm = %v", out)
	}
}

func TestMedianNorm(t *testing.T) {
	out := MedianNorm().Normalize([]float64{2, 4, 6})
	if !almostEq(out[0], 0.5) || !almostEq(out[1], 1) || !almostEq(out[2], 1.5) {
		t.Fatalf("mediannorm = %v", out)
	}
	// Even length: median of {1,3} is 2.
	out = MedianNorm().Normalize([]float64{1, 3})
	if !almostEq(out[0], 0.5) || !almostEq(out[1], 1.5) {
		t.Fatalf("even mediannorm = %v", out)
	}
	// Zero median leaves series unchanged.
	out = MedianNorm().Normalize([]float64{-1, 0, 1})
	if out[0] != -1 || out[2] != 1 {
		t.Fatalf("zero-median mediannorm = %v", out)
	}
}

// sortMedianNorm is MedianNorm with the median taken from a sorted copy,
// as it was before median selected it.
func sortMedianNorm(x []float64) []float64 {
	out := make([]float64, len(x))
	if len(x) == 0 {
		return out
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if med == 0 {
		copy(out, x)
		return out
	}
	for i, v := range x {
		out[i] = v / med
	}
	return out
}

// TestMedianNormMatchesSort requires MedianNorm to return the sort-based
// reference's bits on every length from 1 to 64, odd and even, over
// series mixing NaN, ±0, ±Inf, duplicates and ordinary values, and to
// leave its input untouched.
func TestMedianNormMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	specials := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1, 2}
	mn := MedianNorm()
	for n := 1; n <= 64; n++ {
		for trial := 0; trial < 200; trial++ {
			x := make([]float64, n)
			special := rng.Float64() // share of special values and duplicates
			for i := range x {
				if rng.Float64() < special {
					x[i] = specials[rng.Intn(len(specials))]
				} else {
					x[i] = rng.NormFloat64() * 10
				}
			}
			in := append([]float64(nil), x...)
			got, want := mn.Normalize(x), sortMedianNorm(x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d, x=%v: MedianNorm[%d] = %v, reference %v", n, x, i, got[i], want[i])
				}
				if math.Float64bits(x[i]) != math.Float64bits(in[i]) {
					t.Fatalf("n=%d: MedianNorm changed its input at %d", n, i)
				}
			}
		}
	}
}

func TestUnitLength(t *testing.T) {
	out := UnitLength().Normalize([]float64{3, 4})
	if !almostEq(out[0], 0.6) || !almostEq(out[1], 0.8) {
		t.Fatalf("unitlength = %v", out)
	}
	var nrm float64
	for _, v := range out {
		nrm += v * v
	}
	if !almostEq(nrm, 1) {
		t.Fatalf("norm = %g", nrm)
	}
	// Zero series stays zero.
	out = UnitLength().Normalize([]float64{0, 0})
	if out[0] != 0 || out[1] != 0 {
		t.Fatal("zero series should stay zero")
	}
}

func TestLogistic(t *testing.T) {
	out := Logistic().Normalize([]float64{0, 100, -100})
	if !almostEq(out[0], 0.5) {
		t.Fatalf("logistic(0) = %g", out[0])
	}
	if out[1] < 0.999 || out[2] > 0.001 {
		t.Fatalf("logistic saturation wrong: %v", out)
	}
}

func TestTanh(t *testing.T) {
	out := Tanh().Normalize([]float64{0, 100, -100})
	if !almostEq(out[0], 0) || !almostEq(out[1], 1) || !almostEq(out[2], -1) {
		t.Fatalf("tanh = %v", out)
	}
}

func TestNormalizersDoNotMutateInput(t *testing.T) {
	for _, n := range All() {
		x := []float64{3, 1, 4, 1, 5}
		orig := append([]float64(nil), x...)
		n.Normalize(x)
		for i := range x {
			if x[i] != orig[i] {
				t.Errorf("%s mutates its input", n.Name())
			}
		}
	}
}

func TestAllNamesUniqueAndResolvable(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("All() has %d normalizers, want 8", len(all))
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n.Name()] {
			t.Errorf("duplicate name %s", n.Name())
		}
		seen[n.Name()] = true
		if ByName(n.Name()) == nil {
			t.Errorf("ByName(%s) = nil", n.Name())
		}
	}
	if ByName("doesnotexist") != nil {
		t.Error("ByName of unknown should be nil")
	}
}

func TestAdaptiveScalingRemovesScale(t *testing.T) {
	// ED(x, a*x) under adaptive scaling must be ~0 for any a != 0.
	m := AdaptiveScaling(lockstep.Euclidean())
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3.7 * x[i]
	}
	if d := m.Distance(x, y); d > 1e-9 {
		t.Fatalf("adaptive ED(x, 3.7x) = %g, want ~0", d)
	}
	if m.Name() != "euclidean+adaptive" {
		t.Fatalf("name = %s", m.Name())
	}
}

func TestAdaptiveScalingZeroSeries(t *testing.T) {
	m := AdaptiveScaling(lockstep.Euclidean())
	x := []float64{1, 2, 3}
	zero := []float64{0, 0, 0}
	if d := m.Distance(x, zero); math.IsNaN(d) {
		t.Fatal("adaptive scaling must handle zero series")
	}
}

func TestAdaptiveScalingMatchesASDOrdering(t *testing.T) {
	// ASD is ED with internal adaptive scaling; the decorator around ED
	// must produce identical values.
	dec := AdaptiveScaling(lockstep.Euclidean())
	asd := lockstep.ASD()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 30)
		y := make([]float64, 30)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if math.Abs(dec.Distance(x, y)-asd.Distance(x, y)) > 1e-9 {
			t.Fatalf("decorator %g != ASD %g", dec.Distance(x, y), asd.Distance(x, y))
		}
	}
}
