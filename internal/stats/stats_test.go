package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalCDF(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959964, 0.975},
		{-1.959964, 0.025},
		{1.644854, 0.95},
		{3, 0.99865},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalCDF(%g) = %g, want %g", c.z, got, c.want)
		}
	}
}

func TestChiSquaredCDF(t *testing.T) {
	// Reference values from standard chi-squared tables.
	cases := []struct{ x, df, want float64 }{
		{3.841, 1, 0.95},
		{5.991, 2, 0.95},
		{7.815, 3, 0.95},
		{2.706, 1, 0.90},
		{18.307, 10, 0.95},
		{0, 5, 0},
	}
	for _, c := range cases {
		if got := ChiSquaredCDF(c.x, c.df); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("ChiSquaredCDF(%g, %g) = %g, want %g", c.x, c.df, got, c.want)
		}
	}
}

func TestChiSquaredCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		df := 1 + rng.Float64()*20
		a := rng.Float64() * 30
		b := a + rng.Float64()*10
		return ChiSquaredCDF(a, df) <= ChiSquaredCDF(b, df)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFDistCDF(t *testing.T) {
	// F(0.95; 5, 10) = 3.326 (critical value).
	if got := FDistCDF(3.326, 5, 10); math.Abs(got-0.95) > 1e-3 {
		t.Errorf("FDistCDF(3.326, 5, 10) = %g, want 0.95", got)
	}
	// F(0.95; 1, 1) = 161.45.
	if got := FDistCDF(161.45, 1, 1); math.Abs(got-0.95) > 1e-3 {
		t.Errorf("FDistCDF(161.45, 1, 1) = %g, want 0.95", got)
	}
	if FDistCDF(0, 3, 3) != 0 {
		t.Error("FDistCDF(0) should be 0")
	}
}

func TestRanksNoTies(t *testing.T) {
	r := Ranks([]float64{30, 10, 20}, 0)
	want := []float64{3, 1, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
}

func TestRanksWithTies(t *testing.T) {
	r := Ranks([]float64{1, 2, 2, 3}, 0)
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", r, want)
		}
	}
	// All tied.
	r = Ranks([]float64{5, 5, 5}, 0)
	for _, v := range r {
		if v != 2 {
			t.Fatalf("all-tied ranks = %v, want all 2", r)
		}
	}
}

func TestRanksSumInvariant(t *testing.T) {
	// Sum of ranks must always be n(n+1)/2 regardless of ties.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(10)) // force ties
		}
		r := Ranks(v, 0)
		var sum float64
		for _, x := range r {
			sum += x
		}
		return math.Abs(sum-float64(n*(n+1))/2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAverageRanks(t *testing.T) {
	// Method 0 always best (highest score) -> rank 1; method 2 always worst.
	scores := [][]float64{
		{0.9, 0.5, 0.1},
		{0.8, 0.6, 0.2},
		{0.7, 0.5, 0.3},
	}
	avg := AverageRanks(scores)
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(avg[i]-want[i]) > 1e-12 {
			t.Fatalf("AverageRanks = %v, want %v", avg, want)
		}
	}
}

func TestAverageRanksTies(t *testing.T) {
	scores := [][]float64{{0.5, 0.5}}
	avg := AverageRanks(scores)
	if avg[0] != 1.5 || avg[1] != 1.5 {
		t.Fatalf("AverageRanks with tie = %v, want [1.5 1.5]", avg)
	}
}

func TestWilcoxonKnownExample(t *testing.T) {
	// Classic textbook example (Wilcoxon 1945 style): differences with a
	// clear positive shift should give a small p-value.
	x := []float64{125, 115, 130, 140, 140, 115, 140, 125, 140, 135}
	y := []float64{110, 122, 125, 120, 140, 124, 123, 137, 135, 145}
	r := Wilcoxon(x, y)
	if r.N != 9 { // one zero difference dropped
		t.Fatalf("N = %d, want 9", r.N)
	}
	if r.WPlus+r.WMinus != float64(r.N*(r.N+1))/2 {
		t.Fatalf("rank sums %g + %g != n(n+1)/2", r.WPlus, r.WMinus)
	}
	if r.PValue < 0 || r.PValue > 1 {
		t.Fatalf("p-value out of range: %g", r.PValue)
	}
}

func TestWilcoxonClearDifference(t *testing.T) {
	n := 30
	x := make([]float64, n)
	y := make([]float64, n)
	rng := rand.New(rand.NewSource(42))
	for i := range x {
		base := rng.Float64()
		x[i] = base + 0.2 + 0.01*rng.Float64()
		y[i] = base
	}
	r := Wilcoxon(x, y)
	if r.PValue > 0.001 {
		t.Fatalf("expected tiny p-value for clear shift, got %g", r.PValue)
	}
	if r.WPlus <= r.WMinus {
		t.Fatalf("x is larger on every pair, yet W+ = %g <= W- = %g", r.WPlus, r.WMinus)
	}
}

func TestWilcoxonNoDifference(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	r := Wilcoxon(x, x)
	if r.N != 0 || r.PValue != 1 {
		t.Fatalf("identical samples: N=%d p=%g, want N=0 p=1", r.N, r.PValue)
	}
	if r.Ties != 4 {
		t.Fatalf("Ties = %d, want 4", r.Ties)
	}
}

func TestWilcoxonSymmetricNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 100
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	r := Wilcoxon(x, y)
	if r.PValue < 0.01 {
		t.Fatalf("independent noise should rarely be significant, p=%g", r.PValue)
	}
}

func TestWilcoxonCountsAndMeanDiff(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{0, 2, 4, 3}
	r := Wilcoxon(x, y)
	if r.Wins != 2 || r.Ties != 1 || r.Losses != 1 {
		t.Fatalf("counts = %d/%d/%d, want 2/1/1", r.Wins, r.Ties, r.Losses)
	}
	if math.Abs(r.MeanDiff-0.25) > 1e-12 {
		t.Fatalf("MeanDiff = %g, want 0.25", r.MeanDiff)
	}
}

func TestWilcoxonLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Wilcoxon([]float64{1}, []float64{1, 2})
}

func TestFriedmanDistinguishesMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	scores := make([][]float64, n)
	for i := range scores {
		base := rng.Float64() * 0.1
		// Method 0 clearly best, method 2 clearly worst.
		scores[i] = []float64{0.9 + base, 0.7 + base + 0.05*rng.Float64(), 0.5 + base}
	}
	res := Friedman(scores, 0.10)
	if !res.Significant {
		t.Fatalf("expected significant Friedman test, p=%g", res.PValue)
	}
	if res.AvgRanks[0] >= res.AvgRanks[1] || res.AvgRanks[1] >= res.AvgRanks[2] {
		t.Fatalf("rank ordering wrong: %v", res.AvgRanks)
	}
	if res.CriticalDiff <= 0 {
		t.Fatal("critical difference must be positive")
	}
	if res.ImanDavenP > res.PValue+1e-9 {
		t.Errorf("Iman-Davenport should not be more conservative: F p=%g chi p=%g", res.ImanDavenP, res.PValue)
	}
}

func TestFriedmanNullHypothesis(t *testing.T) {
	// Identical methods: chi-squared statistic ~ 0, not significant.
	scores := [][]float64{{0.5, 0.5, 0.5}, {0.7, 0.7, 0.7}, {0.6, 0.6, 0.6}}
	res := Friedman(scores, 0.10)
	if res.Significant {
		t.Fatalf("identical methods must not be significant, p=%g", res.PValue)
	}
	if math.Abs(res.ChiSq) > 1e-9 {
		t.Fatalf("chi-squared = %g, want 0", res.ChiSq)
	}
}

func TestFriedmanPanics(t *testing.T) {
	for _, scores := range [][][]float64{{}, {{0.5}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %v", scores)
				}
			}()
			Friedman(scores, 0.10)
		}()
	}
}

func TestNemenyiCDValues(t *testing.T) {
	// Demšar's example: k=4, n=14, alpha=0.05 -> CD ~ 1.25.
	cd := NemenyiCD(4, 14, 0.05)
	if math.Abs(cd-1.25) > 0.01 {
		t.Errorf("NemenyiCD(4, 14, 0.05) = %g, want ~1.25", cd)
	}
	// CD shrinks with more datasets.
	if NemenyiCD(5, 128, 0.10) >= NemenyiCD(5, 30, 0.10) {
		t.Error("CD must shrink with larger n")
	}
	// CD grows with more methods.
	if NemenyiCD(10, 50, 0.05) <= NemenyiCD(3, 50, 0.05) {
		t.Error("CD must grow with larger k")
	}
}

func TestNemenyiCDPanics(t *testing.T) {
	for _, c := range []struct {
		k     int
		alpha float64
	}{{25, 0.05}, {1, 0.05}, {5, 0.01}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for k=%d alpha=%g", c.k, c.alpha)
				}
			}()
			NemenyiCD(c.k, 10, c.alpha)
		}()
	}
}

func TestNemenyiGroups(t *testing.T) {
	// Ranks 1.0, 1.5, 3.5 with CD=1: methods 0,1 grouped; 2 alone.
	groups := NemenyiGroups([]float64{1.0, 1.5, 3.5}, 1.0)
	if len(groups) != 1 {
		t.Fatalf("groups = %v, want one group", groups)
	}
	g := groups[0]
	if len(g) != 2 || g[0] != 0 || g[1] != 1 {
		t.Fatalf("group = %v, want [0 1]", g)
	}
}

func TestNemenyiGroupsAllConnected(t *testing.T) {
	groups := NemenyiGroups([]float64{1, 1.2, 1.4}, 2.0)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Fatalf("groups = %v, want single group of 3", groups)
	}
}

func TestNemenyiGroupsNoneConnected(t *testing.T) {
	groups := NemenyiGroups([]float64{1, 3, 5}, 0.5)
	if len(groups) != 0 {
		t.Fatalf("groups = %v, want none", groups)
	}
}

func TestCDDiagramRenders(t *testing.T) {
	names := []string{"MSM", "TWE", "DTW", "NCCc"}
	ranks := []float64{1.8, 2.0, 2.9, 3.3}
	cd := 0.5
	out := CDDiagram(names, ranks, cd)
	for _, n := range names {
		if !strings.Contains(out, n) {
			t.Errorf("diagram missing %q:\n%s", n, out)
		}
	}
	if !strings.Contains(out, "=") {
		t.Errorf("diagram should contain a group bar:\n%s", out)
	}
	if CDDiagram(nil, nil, 1) != "" {
		t.Error("empty diagram should be empty string")
	}
}

// TestWilcoxonNaNPairsDropped is the regression test for the NaN-poisoning
// bug: a NaN difference used to pass the d != 0 filter, get ranked into
// WMinus, and turn MeanDiff and the rank sums into NaN. NaN pairs must be
// excluded from the test entirely and counted in Dropped.
func TestWilcoxonNaNPairsDropped(t *testing.T) {
	x := []float64{0.9, math.NaN(), 0.8, 0.7, 0.95, 0.6}
	y := []float64{0.5, 0.4, 0.6, math.NaN(), 0.5, 0.7}
	res := Wilcoxon(x, y)
	if res.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", res.Dropped)
	}
	if res.N != 4 {
		t.Errorf("N = %d, want 4 (NaN pairs excluded)", res.N)
	}
	if got := res.Wins + res.Ties + res.Losses; got != 4 {
		t.Errorf("Wins+Ties+Losses = %d, want 4", got)
	}
	if math.IsNaN(res.MeanDiff) || math.IsNaN(res.WPlus) || math.IsNaN(res.WMinus) {
		t.Errorf("NaN leaked into statistics: MeanDiff=%v WPlus=%v WMinus=%v",
			res.MeanDiff, res.WPlus, res.WMinus)
	}
	if math.IsNaN(res.PValue) || res.PValue < 0 || res.PValue > 1 {
		t.Errorf("PValue = %v, want a probability", res.PValue)
	}
	// The retained pairs are x>y thrice and x<y once; mean over 4 pairs.
	wantMean := ((0.9 - 0.5) + (0.8 - 0.6) + (0.95 - 0.5) + (0.6 - 0.7)) / 4
	if math.Abs(res.MeanDiff-wantMean) > 1e-12 {
		t.Errorf("MeanDiff = %v, want %v", res.MeanDiff, wantMean)
	}
}

// TestWilcoxonAllZeroDifferences pins the degenerate identical-samples
// case: no non-zero differences means no evidence against the null, so the
// test must report N = 0 and p = 1 rather than NaN or a panic.
func TestWilcoxonAllZeroDifferences(t *testing.T) {
	x := []float64{0.5, 0.5, 0.7, 0.9}
	res := Wilcoxon(x, x)
	if res.N != 0 || res.PValue != 1 || res.Z != 0 {
		t.Errorf("identical samples: N=%d p=%v Z=%v, want N=0 p=1 Z=0", res.N, res.PValue, res.Z)
	}
	if res.Ties != len(x) || res.MeanDiff != 0 {
		t.Errorf("identical samples: Ties=%d MeanDiff=%v", res.Ties, res.MeanDiff)
	}
}

// TestWilcoxonAllNaNPairs drives the dropped-pair path to exhaustion:
// when every pair is NaN the test degenerates to the empty sample.
func TestWilcoxonAllNaNPairs(t *testing.T) {
	x := []float64{math.NaN(), math.NaN()}
	y := []float64{1, math.NaN()}
	res := Wilcoxon(x, y)
	if res.Dropped != 2 || res.N != 0 {
		t.Errorf("Dropped=%d N=%d, want 2 and 0", res.Dropped, res.N)
	}
	if res.PValue != 1 || res.MeanDiff != 0 {
		t.Errorf("PValue=%v MeanDiff=%v, want 1 and 0", res.PValue, res.MeanDiff)
	}
}
