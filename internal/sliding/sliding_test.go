package sliding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/fft"
	"repro/internal/measure"
)

// distanceNaive computes m's dissimilarity by the direct O(m^2) sliding
// sum: the reference of the FFT path's correctness tests and of the FFT
// ablation bench.
func distanceNaive(m *Measure, x, y []float64) float64 {
	measure.CheckSameLength(x, y)
	cc := fft.CrossCorrelationNaive(x, y)
	var nx, ny float64
	if m.variant == NCCc {
		for _, v := range x {
			nx += v * v
		}
		for _, v := range y {
			ny += v * v
		}
		nx, ny = math.Sqrt(nx), math.Sqrt(ny)
	}
	return m.fromCC(cc, len(x), nx, ny)
}

func randSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestVariantNames(t *testing.T) {
	want := map[Variant]string{NCC: "ncc", NCCb: "nccb", NCCu: "nccu", NCCc: "nccc"}
	for v, name := range want {
		if New(v).Name() != name {
			t.Errorf("variant %d name = %s, want %s", v, New(v).Name(), name)
		}
	}
}

func TestSBDIdenticalSeriesIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := dataset.ZNormalize(randSeries(rng, 64))
	if d := SBD().Distance(x, x); math.Abs(d) > 1e-9 {
		t.Fatalf("SBD(x,x) = %g, want 0", d)
	}
}

func TestSBDRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(100)
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		d := SBD().Distance(x, y)
		return d >= -1e-9 && d <= 2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSBDShiftInvariance(t *testing.T) {
	// The defining property: a circular shift of a series is at distance ~0
	// from the original (up to the wrapped boundary, so use a padded shape).
	m := 128
	x := make([]float64, m)
	for i := 40; i < 60; i++ {
		x[i] = 1
	}
	shifted := make([]float64, m)
	copy(shifted[25:], x[:m-25]) // linear shift by 25; bump stays inside
	// SBD recovers the alignment; only the truncated overlap of the
	// z-normalized baseline keeps it slightly above zero.
	d := SBD().Distance(dataset.ZNormalize(x), dataset.ZNormalize(shifted))
	if d > 0.1 {
		t.Fatalf("SBD of shifted bump = %g, want ~0", d)
	}
	// ED of the same pair is large, demonstrating the misconception M3 setup.
	var ed float64
	zx, zs := dataset.ZNormalize(x), dataset.ZNormalize(shifted)
	for i := range zx {
		dd := zx[i] - zs[i]
		ed += dd * dd
	}
	if math.Sqrt(ed) < 1 {
		t.Fatal("test setup broken: ED should be large for the shifted pair")
	}
}

func TestAllVariantsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{5, 16, 33, 64} {
		x := randSeries(rng, n)
		y := randSeries(rng, n)
		for _, m := range []*Measure{New(NCC), New(NCCb), New(NCCu), New(NCCc)} {
			fast := m.Distance(x, y)
			naive := distanceNaive(m, x, y)
			if math.Abs(fast-naive) > 1e-8*(1+math.Abs(naive)) {
				t.Errorf("%s n=%d: fft %g != naive %g", m.Name(), n, fast, naive)
			}
		}
	}
}

func TestPreparedDistanceMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randSeries(rng, 50)
	y := randSeries(rng, 50)
	for _, m := range []*Measure{New(NCC), New(NCCb), New(NCCu), New(NCCc)} {
		px := m.Prepare(x)
		py := m.Prepare(y)
		got := m.PreparedDistance(px, py)
		want := m.Distance(x, y)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: prepared %g != direct %g", m.Name(), got, want)
		}
	}
}

// TestPreparedDistanceAllocFree pins the pooled cross-correlation: a warm
// PreparedDistance of every variant allocates nothing, and two empty
// series are identical (distance 0) on the prepared path too.
func TestPreparedDistanceAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := randSeries(rng, 128), randSeries(rng, 128)
	for _, m := range All() {
		sm := m.(*Measure)
		if d := sm.PreparedDistance(sm.Prepare(nil), sm.Prepare(nil)); d != 0 {
			t.Errorf("%s: empty pair at %v, want 0", sm.Name(), d)
		}
		if raceEnabled {
			continue
		}
		px, py := sm.Prepare(x), sm.Prepare(y)
		sm.PreparedDistance(px, py) // warm the pool
		if n := testing.AllocsPerRun(50, func() { sm.PreparedDistance(px, py) }); n != 0 {
			t.Errorf("%s: warm PreparedDistance allocates %v per run, want 0", sm.Name(), n)
		}
	}
}

func TestNCCbIsScaledNCC(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randSeries(rng, 40)
	y := randSeries(rng, 40)
	ncc := New(NCC).Distance(x, y)   // -max(CC)
	nccb := New(NCCb).Distance(x, y) // -max(CC)/m
	if math.Abs(nccb-ncc/40) > 1e-9*(1+math.Abs(ncc)) {
		t.Fatalf("NCCb %g != NCC/m %g", nccb, ncc/40)
	}
}

func TestNCCcZeroSeries(t *testing.T) {
	zero := make([]float64, 16)
	x := randSeries(rand.New(rand.NewSource(5)), 16)
	if d := SBD().Distance(x, zero); d != 1 {
		t.Fatalf("SBD against zero series = %g, want 1", d)
	}
	if d := SBD().Distance(zero, zero); d != 1 {
		t.Fatalf("SBD(0, 0) = %g, want 1 (defined as max distance)", d)
	}
}

func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randSeries(rng, 30)
	y := randSeries(rng, 30)
	for _, m := range []*Measure{New(NCC), New(NCCb), New(NCCu), New(NCCc)} {
		// Cross-correlation at shift s of (x,y) equals shift -s of (y,x);
		// the max over all shifts is therefore symmetric.
		if d1, d2 := m.Distance(x, y), m.Distance(y, x); math.Abs(d1-d2) > 1e-9*(1+math.Abs(d1)) {
			t.Errorf("%s not symmetric: %g vs %g", m.Name(), d1, d2)
		}
	}
}

func TestAllReturnsFourMeasures(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("All() = %d measures, want 4", len(all))
	}
	seen := map[string]bool{}
	for _, m := range all {
		if seen[m.Name()] {
			t.Errorf("duplicate %s", m.Name())
		}
		seen[m.Name()] = true
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SBD().Distance([]float64{1, 2}, []float64{1, 2, 3})
}

func BenchmarkSBDFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	m := SBD()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

func BenchmarkSBDNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	m := SBD()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distanceNaive(m, x, y)
	}
}

func BenchmarkSBDPrepared(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randSeries(rng, 256)
	y := randSeries(rng, 256)
	m := SBD()
	px := m.Prepare(x)
	py := m.Prepare(y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PreparedDistance(px, py)
	}
}
