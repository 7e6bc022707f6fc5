package kshape

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sliding"
)

// shiftedSines builds n series from k sinusoid classes, each instance
// randomly circularly shifted — the workload k-Shape is designed for.
func shiftedSines(rng *rand.Rand, n, m, k int) (series [][]float64, truth []int) {
	for i := 0; i < n; i++ {
		c := i % k
		freq := float64(c + 1)
		shift := rng.Intn(m)
		s := make([]float64, m)
		for j := range s {
			s[j] = math.Sin(2*math.Pi*freq*float64((j+shift)%m)/float64(m)) + 0.1*rng.NormFloat64()
		}
		series = append(series, dataset.ZNormalize(s))
		truth = append(truth, c)
	}
	return series, truth
}

func TestSBDShiftMatchesSlidingMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 40)
	y := make([]float64, 40)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	d, aligned := sbdShift(x, y)
	want := sliding.SBD().Distance(x, y)
	if math.Abs(d-want) > 1e-9 {
		t.Fatalf("sbdShift dist %g != SBD %g", d, want)
	}
	if len(aligned) != len(y) {
		t.Fatalf("aligned length %d", len(aligned))
	}
}

func TestSBDShiftAlignsShiftedCopy(t *testing.T) {
	m := 64
	x := make([]float64, m)
	for i := 20; i < 30; i++ {
		x[i] = 1
	}
	y := make([]float64, m)
	copy(y[15:], x[:m-15]) // x shifted right by 15
	zx, zy := dataset.ZNormalize(x), dataset.ZNormalize(y)
	_, aligned := sbdShift(zx, zy)
	// After alignment the bump must be back near position 20-30.
	peak := 0
	for i := range aligned {
		if aligned[i] > aligned[peak] {
			peak = i
		}
	}
	if peak < 18 || peak > 32 {
		t.Fatalf("aligned peak at %d, want near 25", peak)
	}
}

// run is Run under a context that never cancels.
func run(series [][]float64, cfg Config) Result {
	res, err := Run(context.Background(), series, cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// runRestarts is RunRestarts under a context that never cancels.
func runRestarts(series [][]float64, cfg Config, restarts int) Result {
	res, err := RunRestarts(context.Background(), series, cfg, restarts)
	if err != nil {
		panic(err)
	}
	return res
}

// cancelAtCheck is a context whose Err reports context.Canceled from its
// at-th call on, counting the calls: a test can cancel a serial run at an
// exact check and see whether the run stopped there.
type cancelAtCheck struct {
	context.Context
	at, calls int
}

func (c *cancelAtCheck) Err() error {
	c.calls++
	if c.calls >= c.at {
		return context.Canceled
	}
	return nil
}

// TestRunCancelled cancels k-Shape before its first iteration and before
// its third: each run returns context.Canceled and a zero Result at the
// check that saw the cancellation, so no iteration starts after it.
func TestRunCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	series, _ := shiftedSines(rng, 40, 48, 3)
	cfg := Config{K: 3, Seed: 2}
	if full := run(series, cfg); full.Iters < 3 {
		t.Fatalf("test data converges after %d iterations, need at least 3", full.Iters)
	}
	for _, at := range []int{1, 3} {
		ctx := &cancelAtCheck{Context: context.Background(), at: at}
		res, err := Run(ctx, series, cfg)
		if err != context.Canceled {
			t.Fatalf("cancel at check %d: err = %v, want context.Canceled", at, err)
		}
		if ctx.calls != at {
			t.Errorf("cancel at check %d: Run checked ctx %d times, want %d", at, ctx.calls, at)
		}
		if res.Labels != nil || res.Centroids != nil || res.Iters != 0 {
			t.Errorf("cancel at check %d: non-zero Result %+v", at, res)
		}
	}
	ctx := &cancelAtCheck{Context: context.Background(), at: 1}
	if _, err := RunRestarts(ctx, series, cfg, 3); err != context.Canceled || ctx.calls != 1 {
		t.Fatalf("RunRestarts: err = %v after %d checks, want context.Canceled after 1", err, ctx.calls)
	}
}

func TestRunRecoversShiftedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series, truth := shiftedSines(rng, 60, 64, 3)
	res := run(series, Config{K: 3, Seed: 5})
	ari := AdjustedRandIndex(res.Labels, truth)
	if ari < 0.9 {
		t.Fatalf("k-Shape ARI = %g on shifted sinusoids, want >= 0.9", ari)
	}
	if res.Iters < 1 {
		t.Fatal("no iterations recorded")
	}
	if len(res.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
}

func TestRunDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series, _ := shiftedSines(rng, 30, 48, 2)
	a := run(series, Config{K: 2, Seed: 7})
	b := run(series, Config{K: 2, Seed: 7})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestRunSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	series, _ := shiftedSines(rng, 10, 32, 2)
	res := run(series, Config{K: 1, Seed: 1})
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatal("K=1 must put everything in cluster 0")
		}
	}
}

func TestRunPanics(t *testing.T) {
	cases := []struct {
		name   string
		series [][]float64
		k      int
	}{
		{"empty", nil, 1},
		{"k too large", [][]float64{{1, 2}}, 2},
		{"k zero", [][]float64{{1, 2}}, 0},
		{"ragged", [][]float64{{1, 2}, {1}}, 1},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			run(c.series, Config{K: c.k})
		}()
	}
}

func TestCentroidsAreZNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	series, _ := shiftedSines(rng, 24, 48, 2)
	res := run(series, Config{K: 2, Seed: 3})
	for c, cen := range res.Centroids {
		if isZero(cen) {
			continue // an empty cluster keeps the zero centroid
		}
		var mean, ss float64
		for _, v := range cen {
			mean += v
		}
		mean /= float64(len(cen))
		for _, v := range cen {
			ss += (v - mean) * (v - mean)
		}
		sd := math.Sqrt(ss / float64(len(cen)))
		if math.Abs(mean) > 1e-9 || math.Abs(sd-1) > 1e-6 {
			t.Errorf("centroid %d: mean=%g sd=%g, want 0/1", c, mean, sd)
		}
	}
}

func TestRandIndex(t *testing.T) {
	if RandIndex([]int{0, 0, 1, 1}, []int{1, 1, 0, 0}) != 1 {
		t.Error("relabeled identical partition must score 1")
	}
	if RandIndex([]int{0, 1}, []int{0, 0}) != 0 {
		t.Error("fully disagreeing pair must score 0")
	}
	if RandIndex([]int{0}, []int{0}) != 1 {
		t.Error("single element must score 1")
	}
}

func TestAdjustedRandIndex(t *testing.T) {
	// Identical partitions -> 1.
	if got := AdjustedRandIndex([]int{0, 0, 1, 1}, []int{5, 5, 9, 9}); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical ARI = %g", got)
	}
	// Independent random labelings hover near 0.
	rng := rand.New(rand.NewSource(6))
	n := 2000
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = rng.Intn(4)
		b[i] = rng.Intn(4)
	}
	if got := AdjustedRandIndex(a, b); math.Abs(got) > 0.05 {
		t.Errorf("independent ARI = %g, want ~0", got)
	}
}

func TestIndexPanicsOnLengthMismatch(t *testing.T) {
	for _, fn := range []func([]int, []int) float64{RandIndex, AdjustedRandIndex} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn([]int{1}, []int{1, 2})
		}()
	}
}

func TestExtractShapeEmptyMembersKeepsPrev(t *testing.T) {
	prev := []float64{1, 2, 3}
	got := extractShape(nil, prev, 10)
	for i := range prev {
		if got[i] != prev[i] {
			t.Fatal("empty members must keep previous centroid")
		}
	}
}

func TestInertiaNonNegativeAndTighterForTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	series, truth := shiftedSines(rng, 30, 48, 3)
	good := run(series, Config{K: 3, Seed: 5})
	if in := Inertia(series, good); in < 0 {
		t.Fatalf("inertia %g < 0", in)
	}
	// A one-cluster solution cannot be tighter than the recovered 3-cluster
	// solution on three well-separated classes.
	one := run(series, Config{K: 1, Seed: 5})
	if Inertia(series, one) <= Inertia(series, good) {
		t.Fatal("K=1 inertia should exceed K=3 inertia on 3-class data")
	}
	_ = truth
}

func TestRunRestartsNeverWorseThanSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	series, _ := shiftedSines(rng, 24, 48, 3)
	cfg := Config{K: 3, Seed: 11}
	single := Inertia(series, run(series, cfg))
	multi := Inertia(series, runRestarts(series, cfg, 5))
	if multi > single+1e-9 {
		t.Fatalf("restarts inertia %g worse than single %g", multi, single)
	}
	// Degenerate restart count behaves like a single run.
	r0 := runRestarts(series, cfg, 0)
	r1 := run(series, cfg)
	for i := range r0.Labels {
		if r0.Labels[i] != r1.Labels[i] {
			t.Fatal("restarts=0 must equal a single run")
		}
	}
}
