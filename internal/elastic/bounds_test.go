package elastic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/measure"
)

// naiveEnvelope is the O(m*w) reference: per-position min/max over the
// clamped window [i-w, i+w].
func naiveEnvelope(y []float64, w int) (upper, lower []float64) {
	m := len(y)
	upper = make([]float64, m)
	lower = make([]float64, m)
	for i := 0; i < m; i++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		jlo, jhi := i-w, i+w
		if jlo < 0 {
			jlo = 0
		}
		if jhi > m-1 {
			jhi = m - 1
		}
		for j := jlo; j <= jhi; j++ {
			if y[j] < lo {
				lo = y[j]
			}
			if y[j] > hi {
				hi = y[j]
			}
		}
		upper[i], lower[i] = hi, lo
	}
	return upper, lower
}

// naiveLBKeogh is the pre-Lemire O(m*w) LB_Keogh kept as an independent
// reference for the envelope-backed implementation.
func naiveLBKeogh(x, y []float64, w int) float64 {
	upper, lower := naiveEnvelope(y, w)
	var s float64
	for i, v := range x {
		switch {
		case v > upper[i]:
			d := v - upper[i]
			s += d * d
		case v < lower[i]:
			d := lower[i] - v
			s += d * d
		}
	}
	return s
}

func randomSeries(seed int64, m int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, m)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestLemireEnvelopeMatchesNaive(t *testing.T) {
	series := map[string][]float64{
		"random":     randomSeries(1, 73),
		"constant":   {2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5, 2.5},
		"increasing": {1, 2, 3, 4, 5, 6, 7, 8, 9},
		"sawtooth":   {0, 3, -1, 4, -2, 5, -3, 6, -4, 7},
		"single":     {42},
	}
	for name, y := range series {
		m := len(y)
		for _, w := range []int{0, 1, 2, 3, m - 1, m, m + 7, 5 * m} {
			if w < 0 {
				continue
			}
			upper, lower := envelope(y, w)
			wantU, wantL := naiveEnvelope(y, w)
			for i := 0; i < m; i++ {
				if upper[i] != wantU[i] || lower[i] != wantL[i] {
					t.Fatalf("%s w=%d i=%d: got (%g, %g), want (%g, %g)",
						name, w, i, lower[i], upper[i], wantL[i], wantU[i])
				}
			}
		}
	}
}

func TestLemireEnvelopeConstantSeriesDegenerate(t *testing.T) {
	y := make([]float64, 50)
	for i := range y {
		y[i] = -3.25
	}
	for _, w := range []int{0, 5, 50, 100} {
		upper, lower := envelope(y, w)
		for i := range y {
			if upper[i] != -3.25 || lower[i] != -3.25 {
				t.Fatalf("w=%d i=%d: constant series envelope must collapse to the value", w, i)
			}
		}
		// LB_Keogh of the series against its own envelope must be zero.
		if lb := lbKeoghEnvelope(y, upper, lower, math.Inf(1)); lb != 0 {
			t.Fatalf("w=%d: self LB_Keogh = %g, want 0", w, lb)
		}
	}
}

func TestLBKeoghMatchesNaiveScan(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		x := randomSeries(seed*2+1, 64)
		y := randomSeries(seed*2+2, 64)
		for _, w := range []int{0, 1, 6, 63, 64, 200} {
			got := LBKeogh(x, y, w)
			want := naiveLBKeogh(x, y, w)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("seed=%d w=%d: LBKeogh=%g naive=%g", seed, w, got, want)
			}
		}
	}
}

// earlyAbandoners are the elastic measures with DistanceUpTo, at
// parameters that prune and (negative MSM cost, negative TWE stiffness)
// parameters that run the full DP.
func earlyAbandoners() []measure.EarlyAbandoning {
	return []measure.EarlyAbandoning{
		DTW{DeltaPercent: 0}, DTW{DeltaPercent: 5}, DTW{DeltaPercent: 10}, DTW{DeltaPercent: 100},
		MSM{C: 0.5}, MSM{C: 0}, MSM{C: -0.5},
		TWE{Lambda: 1, Nu: 0.0001}, TWE{Lambda: 0, Nu: 1}, TWE{Lambda: 1, Nu: -0.01},
		ERP{}, ERP{G: 0.5},
	}
}

func TestDistanceUpToInfMatchesDistance(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		x := randomSeries(seed*2+10, 80)
		y := randomSeries(seed*2+11, 80)
		for _, d := range earlyAbandoners() {
			exact := d.Distance(x, y)
			if upTo := d.DistanceUpTo(x, y, math.Inf(1)); math.Float64bits(exact) != math.Float64bits(upTo) {
				t.Fatalf("%s: DistanceUpTo(+Inf)=%g, Distance=%g", d.Name(), upTo, exact)
			}
		}
	}
}

func TestDistanceUpToContract(t *testing.T) {
	// Contract: below cutoff the exact distance is returned; at or above
	// cutoff any certified lower bound in [cutoff, exact] may be returned.
	rng := rand.New(rand.NewSource(99))
	ms := earlyAbandoners()
	for trial := 0; trial < 400; trial++ {
		m := 8 + rng.Intn(60)
		x, y := wfSeries(rng, m), wfSeries(rng, m)
		d := ms[trial%len(ms)]
		exact := d.Distance(x, y)
		for _, cutoff := range []float64{
			exact * (0.25 + 1.5*rng.Float64()), // straddles the exact value
			exact, math.Nextafter(exact, math.Inf(1)), math.Nextafter(exact, math.Inf(-1)),
		} {
			got := d.DistanceUpTo(x, y, cutoff)
			if exact < cutoff {
				if math.Float64bits(got) != math.Float64bits(exact) {
					t.Fatalf("trial %d %s: exact %g < cutoff %g but DistanceUpTo returned %g",
						trial, d.Name(), exact, cutoff, got)
				}
			} else if got < cutoff || got > exact {
				t.Fatalf("trial %d %s: abandoned value %g outside [cutoff=%g, exact=%g]",
					trial, d.Name(), got, cutoff, exact)
			}
		}
	}
}

func TestLowerBoundNeverExceedsDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		m := 4 + rng.Intn(80)
		x := randomSeries(int64(trial*2+500), m)
		y := randomSeries(int64(trial*2+501), m)
		d := DTW{DeltaPercent: []int{0, 3, 10, 100}[trial%4]}
		cx, cy := d.FillBound(nil, x), d.FillBound(nil, y)
		exact := d.Distance(x, y)
		for _, cutoff := range []float64{math.Inf(1), exact, exact / 2, exact * 2} {
			lb := d.LowerBound(x, y, cx, cy, cutoff)
			if lb > exact {
				t.Fatalf("trial %d cutoff %g: LowerBound %g exceeds DTW %g", trial, cutoff, lb, exact)
			}
		}
	}
}

func TestLowerBoundIdenticalSeriesIsZero(t *testing.T) {
	x := randomSeries(3, 64)
	d := DTW{DeltaPercent: 10}
	cx := d.FillBound(nil, x)
	if lb := d.LowerBound(x, x, cx, cx, math.Inf(1)); lb != 0 {
		t.Fatalf("LowerBound(x, x) = %g, want 0", lb)
	}
}

// TestBoundContextRefillAcrossLengths fills a context under each band,
// then refills it under every band for a series of the same, a longer and
// a shorter length: FillBound must reuse the context, which must then hold
// a fresh context's envelope and give its LowerBound, bit for bit.
func TestBoundContextRefillAcrossLengths(t *testing.T) {
	bands := []int{0, 3, 10, 100}
	const filled = 64
	for _, from := range bands {
		for _, to := range bands {
			for _, m := range []int{filled, 2 * filled, filled / 2} {
				d := DTW{DeltaPercent: to}
				x, y := randomSeries(int64(m+to), m), randomSeries(int64(m+to+1), m)
				c := DTW{DeltaPercent: from}.FillBound(nil, randomSeries(int64(from), filled))
				got, want := d.FillBound(c, x), d.FillBound(nil, x)
				if got != c {
					t.Fatalf("band %d -> %d, length %d: FillBound did not reuse the context", from, to, m)
				}
				g, w := got.(*dtwContext), want.(*dtwContext)
				if !sameBits(g.upper, w.upper) || !sameBits(g.lower, w.lower) {
					t.Fatalf("band %d -> %d, length %d: refilled envelope differs from a fresh one", from, to, m)
				}
				cy := d.FillBound(nil, y)
				a, b := d.LowerBound(x, y, got, cy, math.Inf(1)), d.LowerBound(x, y, want, cy, math.Inf(1))
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("band %d -> %d, length %d: LowerBound %v on the refilled context, %v on a fresh one",
						from, to, m, a, b)
				}
			}
		}
	}
}

// TestFillBoundIgnoresForeignContext checks that a context FillBound did
// not make gets fresh buffers, filled as from nil.
func TestFillBoundIgnoresForeignContext(t *testing.T) {
	d := DTW{DeltaPercent: 10}
	x := randomSeries(8, 48)
	wantU, wantL := envelope(x, WindowSize(10, len(x)))
	for _, c := range []measure.BoundContext{nil, 42, make([]float64, 48), &struct{ upper []float64 }{}} {
		dc, ok := d.FillBound(c, x).(*dtwContext)
		if !ok {
			t.Fatalf("FillBound(%T) did not return a DTW context", c)
		}
		if !sameBits(dc.upper, wantU) || !sameBits(dc.lower, wantL) {
			t.Fatalf("FillBound(%T) envelope differs from a fresh one", c)
		}
	}
}

// TestFillBoundAllocFree pins the in-place refill: a context refilled for
// a series no longer than its buffers, under any band, allocates nothing.
func TestFillBoundAllocFree(t *testing.T) {
	x, y := randomSeries(9, 96), randomSeries(10, 96)
	c := DTW{DeltaPercent: 3}.FillBound(nil, y)
	for _, tc := range []struct {
		name string
		x    []float64
	}{{"same length", x}, {"shorter", x[:40]}} {
		d := DTW{DeltaPercent: 10}
		if n := testing.AllocsPerRun(50, func() { c = d.FillBound(c, tc.x) }); n != 0 {
			t.Errorf("%s: FillBound allocates %v per refill, want 0", tc.name, n)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestElasticMeasuresDeclareSymmetry(t *testing.T) {
	for _, m := range All() {
		if !measure.IsSymmetric(m) {
			t.Errorf("%s should declare symmetry", m.Name())
		}
	}
	for _, m := range []measure.Measure{DDTW{DeltaPercent: 5}, WDTW{G: 0.05},
		DDBlend{DeltaPercent: 5, Alpha: 0.5}, CID{Base: DTW{DeltaPercent: 10}}} {
		if !measure.IsSymmetric(m) {
			t.Errorf("%s should declare symmetry", m.Name())
		}
	}
	if measure.IsSymmetric(measure.New("asym", func(x, y []float64) float64 { return x[0] - y[0] })) {
		t.Error("plain Func must not declare symmetry")
	}
	// Symmetry must hold numerically, bitwise, for every elastic measure.
	x := randomSeries(21, 40)
	y := randomSeries(22, 40)
	for _, m := range All() {
		if m.Distance(x, y) != m.Distance(y, x) {
			t.Errorf("%s: Distance(x,y) != Distance(y,x)", m.Name())
		}
	}
}
