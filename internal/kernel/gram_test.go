package kernel

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/measure"
)

// sinkGammaGrid is Table 4's SINK gamma grid (eval.SINKGrid), hardcoded
// here because the eval package imports kernel.
func sinkGammaGrid() []float64 {
	g := make([]float64, 20)
	for i := range g {
		g[i] = float64(i + 1)
	}
	return g
}

// gramCorpus builds a test set mixing well-behaved random series with the
// degenerate shapes of the oracle corpus: all-zero, constant, NaN- and
// Inf-poisoned, and huge-magnitude series.
func gramCorpus(rng *rand.Rand, n, m int) [][]float64 {
	series := make([][]float64, n)
	for i := range series {
		series[i] = randSeries(rng, m)
	}
	if n >= 5 && m >= 2 {
		series[0] = make([]float64, m) // all zeros
		for j := range series[1] {
			series[1][j] = 3.25 // constant
		}
		series[2][m/2] = math.NaN()
		series[3][0] = math.Inf(1)
		for j := range series[4] {
			series[4][j] = 1e150 * float64(j%3)
		}
	}
	return series
}

// naiveDistanceMatrix is the pre-engine per-pair path: prepare every
// series once, then PreparedDistance per cell — the bitwise reference
// FillDistancesCtx must reproduce.
func naiveDistanceMatrix(s SINK, series [][]float64) [][]float64 {
	prep := make([]any, len(series))
	for i, x := range series {
		prep[i] = s.Prepare(x)
	}
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
		for j := range rows[i] {
			rows[i][j] = s.PreparedDistance(prep[i], prep[j])
		}
	}
	return rows
}

// newGramEngine builds an engine under a context that never cancels.
func newGramEngine(s SINK, series [][]float64) *GramEngine {
	e, err := NewGramEngineCtx(context.Background(), s, series)
	if err != nil {
		panic(err)
	}
	return e
}

func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func TestGramEngineBitwiseVsPreparedPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shape := range [][2]int{{1, 8}, {5, 16}, {18, 33}, {25, 40}} {
		series := gramCorpus(rng, shape[0], shape[1])
		s := SINK{Gamma: 5}
		want := naiveDistanceMatrix(s, series)
		e := newGramEngine(s, series)
		rows := make([][]float64, len(series))
		for i := range rows {
			rows[i] = make([]float64, len(series))
		}
		e.FillDistancesCtx(nil, rows)
		for i := range want {
			for j := range want[i] {
				if !sameValue(rows[i][j], want[i][j]) {
					t.Fatalf("shape %v: engine[%d][%d] = %v, prepared path %v",
						shape, i, j, rows[i][j], want[i][j])
				}
			}
		}
	}
}

func TestGramEngineGammaSweepBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	series := gramCorpus(rng, 9, 16)
	// One engine re-targeted across the grid must match a fresh prepared
	// path per gamma: SetGamma's in-place self-kernel refresh is exact.
	e := newGramEngine(SINK{Gamma: sinkGammaGrid()[0]}, series)
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	for _, gamma := range sinkGammaGrid() {
		e.SetGamma(gamma)
		e.FillDistancesCtx(nil, rows)
		want := naiveDistanceMatrix(SINK{Gamma: gamma}, series)
		for i := range want {
			for j := range want[i] {
				if !sameValue(rows[i][j], want[i][j]) {
					t.Fatalf("gamma %g: engine[%d][%d] = %v, prepared path %v",
						gamma, i, j, rows[i][j], want[i][j])
				}
			}
		}
	}
}

func TestGramMatchesNaiveConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	series := gramCorpus(rng, 21, 24)
	s := SINK{Gamma: 3}
	// The reference is GRAIL's original landmark Gram construction: unit
	// diagonal, upper triangle from the prepared path, mirrored.
	prep := make([]any, len(series))
	for i, x := range series {
		prep[i] = s.Prepare(x)
	}
	e := newGramEngine(s, series)
	g, _ := e.GramCtx(context.Background())
	for i := range series {
		if d := g.At(i, i); d != 1 {
			t.Fatalf("Gram diagonal [%d] = %v, want 1", i, d)
		}
		for j := i + 1; j < len(series); j++ {
			want := 1 - s.PreparedDistance(prep[i], prep[j])
			if !sameValue(g.At(i, j), want) {
				t.Fatalf("Gram[%d][%d] = %v, want %v", i, j, g.At(i, j), want)
			}
			if !sameValue(g.At(j, i), want) {
				t.Fatalf("Gram[%d][%d] (mirror) = %v, want %v", j, i, g.At(j, i), want)
			}
		}
	}
}

func TestGramEnginePreparedStates(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	series := gramCorpus(rng, 7, 12)
	s := SINK{Gamma: 4}
	e := newGramEngine(s, series)
	states := e.PreparedStates()
	q := randSeries(rng, 12)
	pq := s.Prepare(q)
	for i, st := range states {
		got := s.PreparedDistance(pq, st)
		want := s.PreparedDistance(pq, s.Prepare(series[i]))
		if !sameValue(got, want) {
			t.Fatalf("PreparedStates[%d]: distance %v, want %v", i, got, want)
		}
	}
}

func TestGramEngineEmptyAndZeroLength(t *testing.T) {
	e := newGramEngine(SINK{Gamma: 5}, nil)
	if e.Len() != 0 {
		t.Fatalf("empty engine Len = %d", e.Len())
	}
	e.FillDistancesCtx(nil, nil) // must be a no-op, not a panic
	if g, _ := e.GramCtx(context.Background()); g.Rows != 0 || g.Cols != 0 {
		t.Fatalf("empty Gram shape %dx%d", g.Rows, g.Cols)
	}

	// Zero-length series: SINK.Distance defines the pair distance as 1.
	zl := [][]float64{{}, {}}
	ze := newGramEngine(SINK{Gamma: 5}, zl)
	rows := [][]float64{make([]float64, 2), make([]float64, 2)}
	ze.FillDistancesCtx(nil, rows)
	want := SINK{Gamma: 5}.Distance(nil, nil)
	for i := range rows {
		for j := range rows[i] {
			if !sameValue(rows[i][j], want) {
				t.Fatalf("zero-length [%d][%d] = %v, want %v", i, j, rows[i][j], want)
			}
		}
	}
}

func TestGramEngineRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged input")
		}
	}()
	newGramEngine(SINK{Gamma: 5}, [][]float64{{1, 2}, {3}})
}

func TestSINKSelfMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	series := gramCorpus(rng, 11, 16)
	s := SINK{Gamma: 7}
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	ctx := context.Background()
	if ok, err := s.SelfMatrixCtx(ctx, series, rows); err != nil || !ok {
		t.Fatalf("SelfMatrixCtx declined equal-length input (err %v)", err)
	}
	want := naiveDistanceMatrix(s, series)
	for i := range want {
		for j := range want[i] {
			if !sameValue(rows[i][j], want[i][j]) {
				t.Fatalf("SelfMatrixCtx[%d][%d] = %v, want %v", i, j, rows[i][j], want[i][j])
			}
		}
	}
	if ok, _ := s.SelfMatrixCtx(ctx, [][]float64{{1, 2}, {3}}, rows); ok {
		t.Fatal("SelfMatrixCtx must decline ragged input")
	}
	if ok, _ := s.SelfMatrixCtx(ctx, nil, nil); ok {
		t.Fatal("SelfMatrixCtx must decline the empty set")
	}
	var _ measure.ContextSelfMatrixer = s
}

// TestGramEngineSteadyStateAllocs pins the pooled-scratch claim: after the
// first fill sizes the arena, per-pair tile work allocates nothing.
func TestGramEngineSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	series := make([][]float64, 20)
	for i := range series {
		series[i] = randSeries(rng, 32)
	}
	e := newGramEngine(SINK{Gamma: 5}, series)
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	e.FillDistancesCtx(nil, rows) // warm the arena
	sc := &e.scratch[0]
	if n := testing.AllocsPerRun(20, func() { e.pairDistance(3, 7, sc) }); n != 0 {
		t.Errorf("pairDistance allocates %v per run", n)
	}
	if runtime.NumCPU() == 1 {
		// Serial dispatch: a warm fill allocates only the one dispatch
		// closure, independent of the pair count. (With real parallelism
		// goroutine startup allocates too, so the per-pair assertion above
		// carries the 0 allocs/op claim.)
		if n := testing.AllocsPerRun(5, func() { e.FillDistancesCtx(nil, rows) }); n > 1 {
			t.Errorf("warm FillDistancesCtx allocates %v per run, want <= 1", n)
		}
	}
}

// benchSeries is the acceptance-criteria synthetic train set: 200 series
// of length 512.
func benchSeries() [][]float64 {
	rng := rand.New(rand.NewSource(27))
	series := make([][]float64, 200)
	for i := range series {
		series[i] = randSeries(rng, 512)
	}
	return series
}

// BenchmarkGramEngine vs BenchmarkGramNaive is the acceptance benchmark
// for the batched Gram fill (recorded in BENCH_spectral.json): the engine
// pays one spectrum per series and one inverse FFT + one sumExp per pair,
// the naive per-pair build re-prepares both series for every entry.
func BenchmarkGramEngine(b *testing.B) {
	series := benchSeries()
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	s := SINK{Gamma: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newGramEngine(s, series).FillDistancesCtx(nil, rows)
	}
}

// BenchmarkGramNaive is the per-pair SINK Gram build the engine replaces:
// SINK.Distance per cell, re-deriving spectra, norms, and self-kernels
// for every pair (the "per-pair FFTs for every Gram entry" baseline).
func BenchmarkGramNaive(b *testing.B) {
	series := benchSeries()
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	s := SINK{Gamma: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range series {
			for c := range series {
				rows[r][c] = s.Distance(series[r], series[c])
			}
		}
	}
}

// BenchmarkGramPrepared is the intermediate baseline: per-series
// preparation hoisted (the old eval.Matrix Stateful path) but each pair
// still allocating its cross-correlation buffers serially.
func BenchmarkGramPrepared(b *testing.B) {
	series := benchSeries()
	rows := make([][]float64, len(series))
	for i := range rows {
		rows[i] = make([]float64, len(series))
	}
	s := SINK{Gamma: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep := make([]any, len(series))
		for r, x := range series {
			prep[r] = s.Prepare(x)
		}
		for r := range series {
			for c := range series {
				rows[r][c] = s.PreparedDistance(prep[r], prep[c])
			}
		}
	}
}
