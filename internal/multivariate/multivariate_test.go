package multivariate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/lockstep"
)

func randMV(rng *rand.Rand, m, d int) Series {
	s := make(Series, m)
	for t := range s {
		s[t] = make([]float64, d)
		for c := range s[t] {
			s[t][c] = rng.NormFloat64()
		}
	}
	return s
}

func TestValidate(t *testing.T) {
	good := Series{{1, 2}, {3, 4}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Series{{1, 2}, {3}}
	if bad.Validate() == nil {
		t.Fatal("ragged series must fail")
	}
	if (Series{}).Validate() == nil {
		t.Fatal("empty series must fail")
	}
	if (Series{{}}).Validate() == nil {
		t.Fatal("zero channels must fail")
	}
}

func TestChannelsAndChannel(t *testing.T) {
	s := Series{{1, 10}, {2, 20}, {3, 30}}
	if s.Channels() != 2 {
		t.Fatalf("channels = %d", s.Channels())
	}
	c1 := s.Channel(1)
	if c1[0] != 10 || c1[2] != 30 {
		t.Fatalf("channel 1 = %v", c1)
	}
	if (Series{}).Channels() != 0 {
		t.Fatal("empty channels should be 0")
	}
}

func TestZNormalizePerChannel(t *testing.T) {
	s := Series{{1, 100}, {2, 200}, {3, 300}}
	z := s.ZNormalize()
	for c := 0; c < 2; c++ {
		ch := z.Channel(c)
		var mean, ss float64
		for _, v := range ch {
			mean += v
		}
		mean /= float64(len(ch))
		for _, v := range ch {
			ss += (v - mean) * (v - mean)
		}
		sd := math.Sqrt(ss / float64(len(ch)))
		if math.Abs(mean) > 1e-9 || math.Abs(sd-1) > 1e-9 {
			t.Fatalf("channel %d: mean=%g sd=%g", c, mean, sd)
		}
	}
	// Constant channel becomes zeros.
	flat := Series{{5, 1}, {5, 2}}.ZNormalize()
	if flat[0][0] != 0 || flat[1][0] != 0 {
		t.Fatal("constant channel must normalize to zeros")
	}
}

func TestEuclideanSingleChannelMatchesUnivariate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randMV(rng, 30, 1)
	y := randMV(rng, 30, 1)
	got := Euclidean{}.Distance(x, y)
	want := lockstep.Euclidean().Distance(x.Channel(0), y.Channel(0))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("mv ED %g != univariate ED %g", got, want)
	}
}

func TestEuclideanKnown(t *testing.T) {
	x := Series{{0, 0}, {0, 0}}
	y := Series{{3, 0}, {0, 4}}
	if d := (Euclidean{}).Distance(x, y); math.Abs(d-5) > 1e-12 {
		t.Fatalf("mv ED = %g, want 5", d)
	}
}

func TestDTWDependentIdentityAndBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randMV(rng, 25, 3)
	d := DTWDependent{DeltaPercent: 100}
	if v := d.Distance(x, x); v != 0 {
		t.Fatalf("DTW-D(x,x) = %g", v)
	}
	// DTW-D is bounded by the lock-step squared vector distance.
	y := randMV(rng, 25, 3)
	var sq float64
	for t2 := range x {
		for c := range x[t2] {
			diff := x[t2][c] - y[t2][c]
			sq += diff * diff
		}
	}
	if v := d.Distance(x, y); v > sq+1e-9 {
		t.Fatalf("DTW-D %g exceeds lock-step cost %g", v, sq)
	}
}

func TestDTWIndependentEqualsSumOfChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randMV(rng, 20, 2)
	y := randMV(rng, 20, 2)
	di := DTWIndependent{DeltaPercent: 100}
	got := di.Distance(x, y)
	// DTW-I is by definition the sum of per-channel DTWs; with a single
	// shared warping path (DTW-D) the cost can only be higher or equal,
	// since DTW-I optimizes each channel separately.
	dd := DTWDependent{DeltaPercent: 100}.Distance(x, y)
	if got > dd+1e-9 {
		t.Fatalf("DTW-I %g > DTW-D %g; independent paths must not cost more", got, dd)
	}
}

func TestDTWDependentAlignsSharedWarp(t *testing.T) {
	// Two channels warped by the SAME time distortion: DTW-D should align
	// them nearly perfectly.
	m := 60
	mk := func(shift float64) Series {
		s := make(Series, m)
		for t2 := range s {
			w := float64(t2) + shift*math.Sin(2*math.Pi*float64(t2)/float64(m))
			s[t2] = []float64{
				math.Sin(2 * math.Pi * w / 20),
				math.Cos(2 * math.Pi * w / 20),
			}
		}
		return s
	}
	x := mk(0)
	y := mk(3)
	dd := DTWDependent{DeltaPercent: 20}.Distance(x, y)
	ed := Euclidean{}.Distance(x, y)
	if dd > ed*ed/10 {
		t.Fatalf("DTW-D %g not much smaller than squared ED %g on warped copy", dd, ed*ed)
	}
}

func TestIndependentLiftsUnivariateMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randMV(rng, 20, 3)
	y := randMV(rng, 20, 3)
	ind := Independent{Base: lockstep.Manhattan()}
	var want float64
	for c := 0; c < 3; c++ {
		want += lockstep.Manhattan().Distance(x.Channel(c), y.Channel(c))
	}
	if got := ind.Distance(x, y); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Independent = %g, want %g", got, want)
	}
	if ind.Name() != "mv-indep[manhattan]" {
		t.Fatalf("name = %s", ind.Name())
	}
}

func TestMismatchPanics(t *testing.T) {
	x := Series{{1, 2}}
	short := Series{{1, 2}, {3, 4}}
	narrow := Series{{1}}
	for _, pair := range [][2]Series{{x, short}, {x, narrow}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			Euclidean{}.Distance(pair[0], pair[1])
		}()
	}
}

// TestRaggedStepsPanic: a series whose time steps hold different channel
// counts gets the channel-mismatch panic from every measure, on either
// side. The measures read every step by one channel count, so they would
// otherwise compute over a subset of the channels or index out of range.
func TestRaggedStepsPanic(t *testing.T) {
	good := Series{{1, 2, 3, 4}, {1, 2, 3, 4}}
	ragged := []Series{{{1, 2, 3, 9}, {1, 2, 3}}, {{1, 2, 3, 9}, {1, 2, 3, 4, 5}}}
	measures := []Measure{
		Euclidean{},
		DTWDependent{DeltaPercent: 10},
		ERPDependent{G: 0},
		MSMDependent{C: 0.5},
		SoftDTW{Gamma: 1},
		DTWIndependent{DeltaPercent: 10},
		Independent{Base: lockstep.Manhattan()},
		MaskedEuclidean(0.5),
	}
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	for _, m := range measures {
		for _, r := range ragged {
			for _, pair := range [][2]Series{{r, good}, {good, r}} {
				x, y := pair[0], pair[1]
				calls := map[string]func(){"Distance": func() { m.Distance(x, y) }}
				if ea, ok := m.(EarlyAbandoning); ok {
					calls["DistanceUpTo"] = func() { ea.DistanceUpTo(x, y, math.Inf(1)) }
				}
				for name, call := range calls {
					if msg := panicOf(call); !strings.Contains(msg, "channel mismatch") {
						t.Errorf("%s.%s(%v, %v): panic %q, want a channel mismatch", m.Name(), name, x, y, msg)
					}
				}
			}
		}
	}
}

func TestOneNNMultivariate(t *testing.T) {
	// Two classes: channel-correlated sinusoids at different frequencies,
	// with per-instance phase shifts; DTW-D should classify well.
	rng := rand.New(rand.NewSource(5))
	gen := func(class, count int) []Series {
		out := make([]Series, count)
		for i := range out {
			freq := float64(class + 1)
			phase := rng.Float64() * 2 * math.Pi
			s := make(Series, 40)
			for t2 := range s {
				arg := 2*math.Pi*freq*float64(t2)/40 + phase
				s[t2] = []float64{math.Sin(arg), math.Cos(arg)}
			}
			out[i] = s.ZNormalize()
		}
		return out
	}
	var train, test []Series
	var trainL, testL []int
	for class := 0; class < 2; class++ {
		for _, s := range gen(class, 8) {
			train = append(train, s)
			trainL = append(trainL, class)
		}
		for _, s := range gen(class, 6) {
			test = append(test, s)
			testL = append(testL, class)
		}
	}
	acc, _ := AccuracyCtx(context.Background(), DTWDependent{DeltaPercent: 20}, train, trainL, test, testL)
	if acc < 0.9 {
		t.Fatalf("DTW-D 1-NN accuracy %g, want >= 0.9", acc)
	}
	// ED struggles with the phase shifts.
	edAcc, _ := AccuracyCtx(context.Background(), Euclidean{}, train, trainL, test, testL)
	if edAcc > acc {
		t.Fatalf("ED %g beat DTW-D %g on phase-shifted data", edAcc, acc)
	}
}

func TestOneNNPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AccuracyCtx(context.Background(), Euclidean{}, []Series{{{1}}}, []int{1, 2}, nil, nil)
}

func TestGenerateMVDataset(t *testing.T) {
	d := Generate(GenConfig{
		Name: "MV", Length: 40, Channels: 3, NumClasses: 2,
		TrainSize: 8, TestSize: 6, Seed: 1, NoiseSigma: 0.2,
		WarpFrac: 0.05, PhaseShift: true,
	})
	if len(d.Train) != 8 || len(d.Test) != 6 {
		t.Fatalf("split sizes %d/%d", len(d.Train), len(d.Test))
	}
	for _, s := range d.Train {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.Channels() != 3 || len(s) != 40 {
			t.Fatalf("shape %dx%d", len(s), s.Channels())
		}
	}
	// Deterministic.
	d2 := Generate(GenConfig{
		Name: "MV", Length: 40, Channels: 3, NumClasses: 2,
		TrainSize: 8, TestSize: 6, Seed: 1, NoiseSigma: 0.2,
		WarpFrac: 0.05, PhaseShift: true,
	})
	if d.Train[0][0][0] != d2.Train[0][0][0] {
		t.Fatal("generation not deterministic")
	}
}

func TestGenerateMVClassifiable(t *testing.T) {
	d := Generate(GenConfig{
		Name: "MVC", Length: 48, Channels: 2, NumClasses: 2,
		TrainSize: 12, TestSize: 12, Seed: 2, NoiseSigma: 0.15,
		WarpFrac: 0.08, PhaseShift: true,
	})
	acc, _ := AccuracyCtx(context.Background(), DTWDependent{DeltaPercent: 20}, d.Train, d.TrainLabels, d.Test, d.TestLabels)
	if acc < 0.8 {
		t.Fatalf("DTW-D accuracy %g on generated MV data", acc)
	}
}

func TestGenerateMVPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(GenConfig{Length: 4, Channels: 0, NumClasses: 1, TrainSize: 0, TestSize: 0})
}

// TestDependentEmptySides pins what the elastic DP boundaries give when a
// side is empty: two empty series are at distance 0, DTW-D, MSM-D and
// soft-DTW put exactly one empty side at +Inf (no alignment exists), and
// ERP-D charges the other side's cumulative gap penalty.
func TestDependentEmptySides(t *testing.T) {
	x := Series{{1, -2}, {0.5, 3}, {-1, 1}}
	inf := math.Inf(1)
	for _, c := range []struct {
		m                 Measure
		both, left, right float64
	}{
		{DTWDependent{DeltaPercent: 10}, 0, inf, inf},
		{DTWDependent{DeltaPercent: 100}, 0, inf, inf},
		{MSMDependent{C: 0.5}, 0, inf, inf},
		{SoftDTW{Gamma: 1}, 0, inf, inf},
		{SoftDTW{Gamma: 0.1, Normalize: true}, 0, inf, inf},
		{ERPDependent{G: 0.5}, 0, 7.5, 7.5},
	} {
		for _, got := range []struct {
			name    string
			v, want float64
		}{
			{"both empty", c.m.Distance(nil, nil), c.both},
			{"x empty", c.m.Distance(nil, x), c.left},
			{"y empty", c.m.Distance(x, nil), c.right},
		} {
			if got.v != got.want {
				t.Errorf("%s %s: got %v, want %v", c.m.Name(), got.name, got.v, got.want)
			}
		}
	}
}

// abandonAtCutoff is a contract-legal EarlyAbandoning base: the L1
// distance, abandoned at exactly its cutoff whenever it reaches it.
type abandonAtCutoff struct{}

func (abandonAtCutoff) Name() string { return "l1-abandon-at-cutoff" }

func (abandonAtCutoff) Distance(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += math.Abs(x[i] - y[i])
	}
	return s
}

func (a abandonAtCutoff) DistanceUpTo(x, y []float64, cutoff float64) float64 {
	if d := a.Distance(x, y); d < cutoff {
		return d
	}
	return cutoff
}

// TestIndependentAbandonCertifiesCutoff: a channel abandoned at exactly its
// budget must leave the sum in [cutoff, Distance]. On the fixed pair the
// rounded budget cutoff-sum alone left the sum one ulp below the cutoff;
// the random pairs check the contract more widely.
func TestIndependentAbandonCertifiesCutoff(t *testing.T) {
	ind := Independent{Base: abandonAtCutoff{}}
	check := func(x, y Series, cutoff float64) {
		t.Helper()
		d := ind.Distance(x, y)
		v := ind.DistanceUpTo(x, y, cutoff)
		if d < cutoff {
			if v != d {
				t.Fatalf("cutoff %v: DistanceUpTo = %v, want exact %v", cutoff, v, d)
			}
		} else if v < cutoff || v > d {
			t.Fatalf("cutoff %v: DistanceUpTo = %v outside [cutoff, Distance %v]", cutoff, v, d)
		}
	}
	check(Series{{0, 0}}, Series{{0.3702183447347386, 3.325455931056241}}, 1.8478371378954896)
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 2000; trial++ {
		d := 2 + rng.Intn(4)
		x := randMV(rng, 1+rng.Intn(3), d)
		y := randMV(rng, len(x), d)
		check(x, y, ind.Distance(x, y)*rng.Float64())
	}
}
