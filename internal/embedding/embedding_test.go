package embedding

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/kshape"
)

// trainSet builds a small training split with two sinusoid classes.
func trainSet(rng *rand.Rand, n, m int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, m)
		freq := 2.0
		if i%2 == 1 {
			freq = 5.0
		}
		phase := rng.Float64() * 2 * math.Pi
		for j := range s {
			s[j] = math.Sin(2*math.Pi*freq*float64(j)/float64(m)+phase) + 0.1*rng.NormFloat64()
		}
		out[i] = dataset.ZNormalize(s)
	}
	return out
}

func TestGRAILSelfSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := trainSet(rng, 20, 64)
	g := &GRAIL{Gamma: 5, Dim: 10, Seed: 1}
	g.Fit(train)
	m := Measure{E: g}
	x := train[0]
	if d := m.Distance(x, x); math.Abs(d) > 1e-9 {
		t.Fatalf("GRAIL d(x,x) = %g", d)
	}
}

func TestGRAILPreservesSINKOrdering(t *testing.T) {
	// Representations must rank a same-class series closer than a
	// different-class series, like the underlying SINK kernel does.
	rng := rand.New(rand.NewSource(2))
	train := trainSet(rng, 30, 64)
	g := &GRAIL{Gamma: 5, Dim: 20, Seed: 2}
	g.Fit(train)
	m := Measure{E: g}
	// train[0] and train[2] share a class; train[1] does not.
	same := m.Distance(train[0], train[2])
	diff := m.Distance(train[0], train[1])
	if same >= diff {
		t.Fatalf("GRAIL: same-class %g >= cross-class %g", same, diff)
	}
}

func TestGRAILDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := trainSet(rng, 12, 32)
	a := &GRAIL{Gamma: 5, Dim: 8, Seed: 7}
	b := &GRAIL{Gamma: 5, Dim: 8, Seed: 7}
	a.Fit(train)
	b.Fit(train)
	za := a.Transform(train[0])
	zb := b.Transform(train[0])
	for i := range za {
		if za[i] != zb[i] {
			t.Fatal("GRAIL not deterministic")
		}
	}
}

func TestGRAILTransformBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&GRAIL{Gamma: 5}).Transform([]float64{1, 2, 3})
}

func TestGRAILDimCapsAtTrainSize(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := trainSet(rng, 6, 32)
	g := &GRAIL{Gamma: 5, Dim: 100, Seed: 1}
	g.Fit(train)
	z := g.Transform(train[0])
	if len(z) != 6 {
		t.Fatalf("representation length %d, want 6 (train size)", len(z))
	}
}

func TestRWSFeaturesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train := trainSet(rng, 10, 48)
	r := &RWS{Gamma: 1, DMax: 25, Dim: 32, Seed: 3}
	r.Fit(train)
	z := r.Transform(train[0])
	if len(z) != 32 {
		t.Fatalf("RWS dim = %d", len(z))
	}
	for _, v := range z {
		if v < 0 || v > 1 {
			t.Fatalf("RWS feature %g outside [0, 1]", v)
		}
	}
}

func TestRWSSelfDistanceZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	train := trainSet(rng, 10, 48)
	r := &RWS{Gamma: 1, DMax: 25, Dim: 16, Seed: 4}
	r.Fit(train)
	m := Measure{E: r}
	if d := m.Distance(train[0], train[0]); d != 0 {
		t.Fatalf("RWS d(x,x) = %g", d)
	}
}

func TestRWSSeparatesClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := trainSet(rng, 40, 64)
	r := &RWS{Gamma: 1, DMax: 25, Dim: 64, Seed: 5}
	r.Fit(train)
	m := Measure{E: r}
	var sameSum, diffSum float64
	var sameN, diffN int
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			d := m.Distance(train[i], train[j])
			if i%2 == j%2 {
				sameSum += d
				sameN++
			} else {
				diffSum += d
				diffN++
			}
		}
	}
	if sameSum/float64(sameN) >= diffSum/float64(diffN) {
		t.Fatalf("RWS mean same-class distance %g >= cross-class %g",
			sameSum/float64(sameN), diffSum/float64(diffN))
	}
}

func TestSPIRALApproximatesDTW(t *testing.T) {
	// The embedding contract: ED between representations correlates with
	// DTW between the originals.
	rng := rand.New(rand.NewSource(8))
	train := trainSet(rng, 30, 48)
	s := &SPIRAL{Dim: 20, Seed: 6}
	s.Fit(train)
	m := Measure{E: s}
	dtw := elastic.DTW{DeltaPercent: 100}
	// Rank correlation proxy: count of concordant pairs among sampled triples.
	concordant, total := 0, 0
	for trial := 0; trial < 60; trial++ {
		i, j, k := rng.Intn(30), rng.Intn(30), rng.Intn(30)
		if i == j || i == k || j == k {
			continue
		}
		dtwIJ, dtwIK := dtw.Distance(train[i], train[j]), dtw.Distance(train[i], train[k])
		embIJ, embIK := m.Distance(train[i], train[j]), m.Distance(train[i], train[k])
		if math.Abs(dtwIJ-dtwIK) < 1e-9 {
			continue
		}
		total++
		if (dtwIJ < dtwIK) == (embIJ < embIK) {
			concordant++
		}
	}
	if total == 0 {
		t.Skip("degenerate sample")
	}
	if frac := float64(concordant) / float64(total); frac < 0.7 {
		t.Fatalf("SPIRAL concordance with DTW = %.2f, want >= 0.7", frac)
	}
}

func TestSPIRALSelfDistanceZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := trainSet(rng, 12, 32)
	s := &SPIRAL{Dim: 8, Seed: 7}
	s.Fit(train)
	m := Measure{E: s}
	if d := m.Distance(train[3], train[3]); d != 0 {
		t.Fatalf("SPIRAL d(x,x) = %g", d)
	}
}

func TestSIDLActivationsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	train := trainSet(rng, 16, 64)
	s := &SIDL{Lambda: 0.1, R: 0.25, Dim: 24, Seed: 8}
	s.Fit(train)
	z := s.Transform(train[0])
	if len(z) != 24 {
		t.Fatalf("SIDL dim = %d", len(z))
	}
	for _, v := range z {
		if v < 0 {
			t.Fatalf("SIDL activation %g < 0 after soft threshold", v)
		}
	}
}

func TestSIDLShiftInvariantActivations(t *testing.T) {
	// A pattern and its shifted copy should receive similar activations
	// (max-pooling over positions is shift invariant away from borders).
	rng := rand.New(rand.NewSource(11))
	m := 96
	x := make([]float64, m)
	for i := 30; i < 45; i++ {
		x[i] = 1
	}
	shifted := make([]float64, m)
	copy(shifted[20:], x[:m-20])
	zx := dataset.ZNormalize(x)
	zs := dataset.ZNormalize(shifted)
	train := [][]float64{zx, zs}
	for i := 0; i < 8; i++ {
		train = append(train, dataset.ZNormalize(trainSeries(rng, m)))
	}
	s := &SIDL{Lambda: 0, R: 0.2, Dim: 12, Seed: 9}
	s.Fit(train)
	me := Measure{E: s}
	dShift := me.Distance(zx, zs)
	dRand := me.Distance(zx, train[4])
	if dShift >= dRand {
		t.Fatalf("SIDL shifted copy %g not closer than random %g", dShift, dRand)
	}
}

func trainSeries(rng *rand.Rand, m int) []float64 {
	s := make([]float64, m)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func TestSIDLAtomLengthBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	train := trainSet(rng, 8, 20)
	// R so small the patch length clamps to 2; R=1 clamps to the length.
	for _, r := range []float64{0.001, 1.0} {
		s := &SIDL{Lambda: 0, R: r, Dim: 4, Seed: 1}
		s.Fit(train)
		if z := s.Transform(train[0]); len(z) != 4 {
			t.Fatalf("R=%g: dim %d", r, len(z))
		}
	}
}

func TestAllEmbeddersFitAndTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	train := trainSet(rng, 14, 48)
	for _, e := range All(1) {
		e.Fit(train)
		z := e.Transform(train[0])
		if len(z) == 0 {
			t.Errorf("%s produced empty representation", e.Name())
		}
		for _, v := range z {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s produced non-finite feature", e.Name())
			}
		}
	}
}

func TestMeasureStatefulPathMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	train := trainSet(rng, 12, 32)
	g := &GRAIL{Gamma: 5, Dim: 8, Seed: 2}
	g.Fit(train)
	m := Measure{E: g}
	x, y := train[0], train[1]
	direct := m.Distance(x, y)
	prepared := m.PreparedDistance(m.Prepare(x), m.Prepare(y))
	if math.Abs(direct-prepared) > 1e-12 {
		t.Fatalf("stateful %g != direct %g", prepared, direct)
	}
}

func TestFitPanicsOnEmptyTrain(t *testing.T) {
	for _, e := range []Embedder{&GRAIL{Gamma: 5}, &SPIRAL{}, &SIDL{R: 0.25}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on empty training set", e.Name())
				}
			}()
			e.Fit(nil)
		}()
	}
}

func TestDTWUnconstrainedUnequalLengths(t *testing.T) {
	x := []float64{0, 1, 2, 1, 0}
	y := []float64{0, 2, 0}
	d := elastic.UnbandedDTW(x, y)
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("dtwUnconstrained = %g", d)
	}
	if dSelf := elastic.UnbandedDTW(x, x); dSelf != 0 {
		t.Fatalf("dtwUnconstrained(x,x) = %g", dSelf)
	}
}

func TestGRAILKShapeLandmarks(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	train := trainSet(rng, 24, 48)
	g := &GRAIL{Gamma: 5, Dim: 6, Seed: 3, KShapeLandmarks: true}
	g.Fit(train)
	z := g.Transform(train[0])
	if len(z) != 6 {
		t.Fatalf("representation length %d, want 6", len(z))
	}
	for _, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite feature from k-Shape landmarks")
		}
	}
	// Same-class pairs must still rank closer than cross-class pairs.
	m := Measure{E: g}
	same := m.Distance(train[0], train[2])
	diff := m.Distance(train[0], train[1])
	if same >= diff {
		t.Fatalf("k-Shape GRAIL: same-class %g >= cross-class %g", same, diff)
	}
}

func TestKShapeLandmarksCount(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	train := trainSet(rng, 10, 32)
	lm, err := kshapeLandmarks(context.Background(), train, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(lm) != 4 {
		t.Fatalf("landmarks = %d, want 4", len(lm))
	}
	for _, l := range lm {
		if len(l) != 32 {
			t.Fatalf("landmark length %d", len(l))
		}
	}
	// Requesting more landmarks than series clamps.
	if lm, err = kshapeLandmarks(context.Background(), train, 100, 1); err != nil {
		t.Fatal(err)
	}
	if len(lm) != 10 {
		t.Fatalf("clamped landmarks = %d, want 10", len(lm))
	}
}

// transformPanics reports whether Transform panics, the unfitted state.
func transformPanics(e Embedder, x []float64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	e.Transform(x)
	return false
}

// TestGRAILCancelledRefitLeavesUnfitted refits a fitted GRAIL at another
// gamma under a cancelled context: the fit must fail and leave the
// embedder unfitted, not serving the new gamma against the old landmark
// states and basis.
func TestGRAILCancelledRefitLeavesUnfitted(t *testing.T) {
	train := trainSet(rand.New(rand.NewSource(41)), 16, 32)
	g := &GRAIL{Gamma: 5, Dim: 8, Seed: 1}
	g.Fit(train)
	if transformPanics(g, train[0]) {
		t.Fatal("fitted GRAIL panics in Transform")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g.Gamma = 1
	if err := g.FitCtx(ctx, train); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !transformPanics(g, train[0]) {
		t.Fatal("GRAIL still transforms after a cancelled refit")
	}
}

// cancelAfter wraps a cancellable context and cancels it inside its at-th
// Err call, counting the calls, so a test can cancel a fit at an exact
// check: serial loops see the cancellation through Err, par dispatches
// through Done.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	calls  atomic.Int64
}

func newCancelAfter(at int64) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAfter{Context: ctx, cancel: cancel, at: at}
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestGRAILKShapeFitCancelled cancels a k-Shape-landmark GRAIL fit before
// k-Shape's first iteration and before its third. An uncancelled fit
// checks ctx at least once per k-Shape iteration, k-Shape's checks coming
// first, so each cancelled fit must return context.Canceled at the check
// that saw the cancellation — within one iteration, with no later check —
// and leave the embedder unfitted.
func TestGRAILKShapeFitCancelled(t *testing.T) {
	train := trainSet(rand.New(rand.NewSource(43)), 40, 32)
	cfg := kshape.Config{K: 8, Seed: 1}
	res, err := kshape.Run(context.Background(), train, cfg)
	if err != nil || res.Iters < 5 {
		t.Fatalf("k-Shape ran %d iterations (err %v); the test needs at least 5", res.Iters, err)
	}
	full := newCancelAfter(math.MaxInt64)
	g := &GRAIL{Gamma: 5, Dim: cfg.K, Seed: cfg.Seed, KShapeLandmarks: true}
	if err := g.FitCtx(full, train); err != nil {
		t.Fatal(err)
	}
	if n := full.calls.Load(); n < int64(res.Iters) {
		t.Fatalf("uncancelled fit checked ctx %d times over %d k-Shape iterations", n, res.Iters)
	}
	for _, at := range []int64{1, 3} {
		g := &GRAIL{Gamma: 5, Dim: cfg.K, Seed: cfg.Seed, KShapeLandmarks: true}
		ctx := newCancelAfter(at)
		if err := g.FitCtx(ctx, train); err != context.Canceled {
			t.Fatalf("cancel at check %d: err = %v, want context.Canceled", at, err)
		}
		if n := ctx.calls.Load(); n != at {
			t.Errorf("cancel at check %d: fit checked ctx %d times, want %d", at, n, at)
		}
		if !transformPanics(g, train[0]) {
			t.Errorf("cancel at check %d: GRAIL transforms after a cancelled fit", at)
		}
	}
}

// TestGRAILFitTransformCancelled cancels a fused fit of a fitted GRAIL at
// each context check an uncancelled fused fit makes (the landmark
// preparation, the row fill and the projection; with k-Shape landmarks,
// k-Shape's iterations and the transforms too): every cancelled fit must
// return context.Canceled and no representations, and leave the embedder
// unfitted.
func TestGRAILFitTransformCancelled(t *testing.T) {
	train := trainSet(rand.New(rand.NewSource(44)), 40, 32)
	for _, kshape := range []bool{false, true} {
		full := newCancelAfter(math.MaxInt64)
		if _, err := (&GRAIL{Gamma: 5, Dim: 8, Seed: 1, KShapeLandmarks: kshape}).FitTransformCtx(full, train); err != nil {
			t.Fatal(err)
		}
		checks := full.calls.Load()
		if checks < 3 {
			t.Fatalf("k-Shape %v: uncancelled fused fit checked ctx %d times, want one per phase at least", kshape, checks)
		}
		for at := int64(1); at <= checks; at++ {
			g := &GRAIL{Gamma: 5, Dim: 8, Seed: 1, KShapeLandmarks: kshape}
			g.Fit(train)
			reps, err := g.FitTransformCtx(newCancelAfter(at), train)
			if err != context.Canceled || reps != nil {
				t.Fatalf("k-Shape %v, cancel at check %d of %d: %d reps, err = %v, want none and context.Canceled", kshape, at, checks, len(reps), err)
			}
			if !transformPanics(g, train[0]) {
				t.Errorf("k-Shape %v, cancel at check %d of %d: GRAIL transforms after a cancelled fused fit", kshape, at, checks)
			}
		}
	}
}

// TestSPIRALCancelledRefitLeavesUnfitted is the SPIRAL analogue: a
// cancelled refit must not leave it fitted with no landmarks.
func TestSPIRALCancelledRefitLeavesUnfitted(t *testing.T) {
	train := trainSet(rand.New(rand.NewSource(42)), 16, 32)
	s := &SPIRAL{Dim: 8, Seed: 1}
	s.Fit(train)
	if transformPanics(s, train[0]) {
		t.Fatal("fitted SPIRAL panics in Transform")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.FitCtx(ctx, train); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !transformPanics(s, train[0]) {
		t.Fatal("SPIRAL still transforms after a cancelled refit")
	}
}
