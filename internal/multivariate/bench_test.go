package multivariate

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/lockstep"
)

// benchSeries draws a random d-channel series of n vector points.
func benchSeries(rng *rand.Rand, n, d int) Series {
	s := make(Series, n)
	for t := range s {
		s[t] = make([]float64, d)
		for c := range s[t] {
			s[t][c] = rng.NormFloat64()
		}
	}
	return s
}

// TestMultivariateDistanceAllocFree pins the satellite fix: every pooled
// multivariate Distance runs allocation-free once the row and channel
// scratch pools are warm (the independent lifts used to allocate a fresh
// []float64 per Channel call per channel per distance).
func TestMultivariateDistanceAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; allocation counts are meaningless")
	}
	rng := rand.New(rand.NewSource(11))
	x, y := benchSeries(rng, 128, 3), benchSeries(rng, 128, 3)
	measures := []Measure{
		Euclidean{},
		DTWDependent{DeltaPercent: 10},
		ERPDependent{},
		MSMDependent{C: 0.5},
		SoftDTW{Gamma: 1},
		SoftDTW{Gamma: 0.1, Normalize: true},
		DTWIndependent{DeltaPercent: 10},
		Independent{Base: lockstep.Manhattan()},
		MaskedEuclidean(0.3),
		MaskedManhattan(0.3),
	}
	for _, m := range measures {
		m.Distance(x, y) // warm the pools
		if allocs := testing.AllocsPerRun(50, func() { m.Distance(x, y) }); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op warm, want 0", m.Name(), allocs)
		}
	}
}

// TestClassifyEmptyTrain pins the degenerate-input satellite: an empty
// reference set yields (-1, +Inf) per query with no panic, and accuracy
// over it is zero.
func TestClassifyEmptyTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	test := []Series{benchSeries(rng, 16, 2), benchSeries(rng, 16, 2)}
	idx, dist, err := Classify(nil, DTWDependent{DeltaPercent: 10}, nil, test)
	if err != nil {
		t.Fatalf("Classify on empty train: %v", err)
	}
	for i := range test {
		if idx[i] != -1 || !math.IsInf(dist[i], 1) {
			t.Errorf("query %d: got (%d, %g), want (-1, +Inf)", i, idx[i], dist[i])
		}
	}
	acc, err := AccuracyCtx(nil, DTWDependent{DeltaPercent: 10}, nil, nil, test, []int{0, 1})
	if err != nil {
		t.Fatalf("AccuracyCtx on empty train: %v", err)
	}
	if acc != 0 {
		t.Errorf("accuracy over empty train = %g, want 0", acc)
	}
}

// TestClassifyCancellation verifies Classify honours a pre-cancelled
// context instead of running the full evaluation.
func TestClassifyCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var train, test []Series
	for i := 0; i < 8; i++ {
		train = append(train, benchSeries(rng, 64, 3))
		test = append(test, benchSeries(rng, 64, 3))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Classify(ctx, DTWDependent{DeltaPercent: 10}, train, test); err == nil {
		t.Fatal("Classify with cancelled context returned nil error")
	}
}

// cancellingMeasure counts its distances and cancels the run at the k-th.
type cancellingMeasure struct {
	n      *atomic.Int64
	k      int64
	cancel context.CancelFunc
}

func (cancellingMeasure) Name() string { return "cancelling" }

func (m cancellingMeasure) Distance(x, y Series) float64 {
	if m.n.Add(1) == m.k {
		m.cancel()
	}
	return Euclidean{}.Distance(x, y)
}

// TestClassifyCancelMidRun cancels Classify from inside its k-th distance.
// Dispatch chunks are the only cancellation point, so the run stops once
// every worker has finished the chunk it holds: at most k + workers x
// chunk x len(train) distances, chunk being internal/par's n/(workers*8).
func TestClassifyCancelMidRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	var train, test []Series
	for i := 0; i < 4; i++ {
		train = append(train, benchSeries(rng, 8, 2))
	}
	for i := 0; i < 64; i++ {
		test = append(test, benchSeries(rng, 8, 2))
	}
	const k = 20
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		workers := min(procs, len(test))
		chunk := max(len(test)/(workers*8), 1)
		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int64
		_, _, err := Classify(ctx, cancellingMeasure{n: &n, k: k, cancel: cancel}, train, test)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		if limit := int64(k + workers*chunk*len(train)); n.Load() < k || n.Load() > limit {
			t.Fatalf("procs=%d: %d distances ran, want %d..%d", procs, n.Load(), k, limit)
		}
	}
}

// Benchmarks recorded by `make bench` into BENCH_multivariate.json. The
// dependent/independent pair at equal length and channel count exposes
// the cost of one vector-point DP versus d univariate DPs plus channel
// extraction; the masked variant is the lockstep hot loop with the
// per-pair NaN test.
func benchPair(n, d int) (Series, Series) {
	rng := rand.New(rand.NewSource(7))
	return benchSeries(rng, n, d), benchSeries(rng, n, d)
}

func BenchmarkMultivariateDTWDependent(b *testing.B) {
	x, y := benchPair(128, 3)
	m := DTWDependent{DeltaPercent: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

func BenchmarkMultivariateDTWIndependent(b *testing.B) {
	x, y := benchPair(128, 3)
	m := DTWIndependent{DeltaPercent: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

func BenchmarkMultivariateERPDependent(b *testing.B) {
	x, y := benchPair(128, 3)
	m := ERPDependent{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

func BenchmarkMultivariateMSMDependent(b *testing.B) {
	x, y := benchPair(128, 3)
	m := MSMDependent{C: 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

func BenchmarkMultivariateSoftDTW(b *testing.B) {
	x, y := benchPair(128, 3)
	m := SoftDTW{Gamma: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

func BenchmarkMultivariateMaskedEuclidean(b *testing.B) {
	x, y := benchPair(128, 3)
	m := MaskedEuclidean(0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}
