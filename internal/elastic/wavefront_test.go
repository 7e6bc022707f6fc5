package elastic

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/measure"
)

// wavefronter is the surface shared by the six blocked elastic measures.
type wavefronter interface {
	Name() string
	Distance(x, y []float64) float64
	DistanceWavefront(x, y []float64) float64
}

// table4Epsilons mirrors eval's epsilonGrid (Table 4); the eval package
// cannot be imported here without a cycle.
var table4Epsilons = []float64{
	0.001, 0.003, 0.005, 0.007, 0.009, 0.01, 0.03, 0.05,
	0.07, 0.09, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1,
}

// table4Wavefronters enumerates every Table-4 grid point of the six
// wavefront-capable elastic measures.
func table4Wavefronters() []wavefronter {
	var ms []wavefronter
	for _, c := range []float64{0.01, 0.1, 1, 10, 100, 0.05, 0.5, 5, 50, 500} {
		ms = append(ms, MSM{C: c})
	}
	for _, l := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		for _, n := range []float64{0.00001, 0.0001, 0.001, 0.01, 0.1, 1} {
			ms = append(ms, TWE{Lambda: l, Nu: n})
		}
	}
	for d := 0; d <= 20; d++ {
		ms = append(ms, DTW{DeltaPercent: d})
	}
	ms = append(ms, DTW{DeltaPercent: 100})
	for _, e := range table4Epsilons {
		ms = append(ms, EDR{Epsilon: e})
	}
	ms = append(ms, ERP{G: 0})
	for _, d := range []int{5, 10} {
		for _, e := range table4Epsilons {
			ms = append(ms, LCSS{DeltaPercent: d, Epsilon: e})
		}
	}
	return ms
}

// wfSeries draws a test series whose values repeat often enough to exercise
// the epsilon-tie branches of LCSS/EDR and the interval branch of msmCost.
func wfSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch rng.Intn(4) {
		case 0:
			s[i] = math.Round(rng.NormFloat64()*4) / 4 // coarse grid: exact ties
		default:
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

// wfPairs returns the finite pair (x, y) plus copies planting NaN, +Inf and
// -Inf in x, and +Inf in both series (so inf-inf turns a cell NaN).
func wfPairs(rng *rand.Rand, n int) [][2][]float64 {
	x, y := wfSeries(rng, n), wfSeries(rng, n)
	pairs := [][2][]float64{{x, y}}
	plant := func(s []float64, v float64) []float64 {
		c := append([]float64(nil), s...)
		c[rng.Intn(n)] = v
		return c
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pairs = append(pairs, [2][]float64{plant(x, v), y})
	}
	return append(pairs, [2][]float64{plant(x, math.Inf(1)), plant(y, math.Inf(1))})
}

func allFinite(s []float64) bool {
	for _, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// TestWavefrontBitwiseScalar is the exactness property test of the blocked
// route: for every Table-4 grid point, across block edges, lengths that
// exercise single-block, ragged-edge and multi-diagonal schedules, and
// worker counts, the wavefront must be bitwise-identical to the serial DP on
// finite input. On NaN and ±Inf input the serial path's pruning at +Inf
// can skip cells that the wavefront evaluates, so there the two must agree
// after measure.Sanitize (the oracle's rule). Passing at GOMAXPROCS 1
// and 4 checks that the blocked result does not depend on the worker count.
func TestWavefrontBitwiseScalar(t *testing.T) {
	defer func(b int) { wfBlock = b }(wfBlock)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(61))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, block := range []int{4, 8, 256} {
			wfBlock = block
			for _, n := range []int{1, 2, 3, 7, 8, 9, 33, 64} {
				for _, pair := range wfPairs(rng, n) {
					x, y := pair[0], pair[1]
					finite := allFinite(x) && allFinite(y)
					for _, m := range table4Wavefronters() {
						want := m.Distance(x, y)
						got := m.DistanceWavefront(x, y)
						if !finite {
							got, want = measure.Sanitize(got), measure.Sanitize(want)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s procs=%d block=%d n=%d finite=%v: wavefront %v != serial %v",
								m.Name(), procs, block, n, finite, got, want)
						}
					}
				}
			}
		}
	}
}

// TestWavefrontEmpty: zero-length series take the measure's empty-input
// shortcut on both paths.
func TestWavefrontEmpty(t *testing.T) {
	for _, m := range []wavefronter{DTW{DeltaPercent: 10}, LCSS{DeltaPercent: 5, Epsilon: 0.2},
		EDR{Epsilon: 0.1}, ERP{}, MSM{C: 0.5}, TWE{Lambda: 1, Nu: 0.0001}} {
		if got := m.DistanceWavefront(nil, nil); got != m.Distance(nil, nil) {
			t.Fatalf("%s: empty input gave %v", m.Name(), got)
		}
	}
}

// TestElasticDistanceAllocFree: every serial elastic Distance, and every
// DistanceUpTo at a cutoff that prunes, runs allocation-free once the
// driver's row pool is warm.
func TestElasticDistanceAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; allocation counts are meaningless")
	}
	rng := rand.New(rand.NewSource(5))
	x, y := wfSeries(rng, 128), wfSeries(rng, 128)
	measures := []interface {
		Name() string
		Distance(x, y []float64) float64
	}{
		DTW{DeltaPercent: 10}, LCSS{DeltaPercent: 5, Epsilon: 0.2}, EDR{Epsilon: 0.1},
		ERP{}, MSM{C: 0.5}, TWE{Lambda: 1, Nu: 0.0001}, Swale{Epsilon: 0.2, P: 5, R: 1},
	}
	for _, m := range measures {
		d := m.Distance(x, y) // warm the pool
		if allocs := testing.AllocsPerRun(50, func() { m.Distance(x, y) }); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op warm, want 0", m.Name(), allocs)
		}
		if ea, ok := m.(measure.EarlyAbandoning); ok {
			if allocs := testing.AllocsPerRun(50, func() { ea.DistanceUpTo(x, y, d/2) }); allocs != 0 {
				t.Errorf("%s: DistanceUpTo %.1f allocs/op warm, want 0", m.Name(), allocs)
			}
		}
	}
}

// Benchmarks for the serial-vs-wavefront crossover that sets
// wavefrontMinSpan; make bench records them into BENCH_hotloops.json. DTW
// runs a 10% band (205, 409, 513 and 819 cells wide at n=1024, 2048, 2560
// and 4096); MSM is unbanded (447, 511, 767 and 1023 cells at n=448, 512,
// 768 and 1024).
func benchSeries(n int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(3))
	return wfSeries(rng, n), wfSeries(rng, n)
}

func BenchmarkHotloopsDTWScalar(b *testing.B) {
	for _, n := range []int{1024, 2048, 2560, 4096} {
		x, y := benchSeries(n)
		d := DTW{DeltaPercent: 10}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.DistanceUpTo(x, y, math.Inf(1))
			}
		})
	}
}

func BenchmarkHotloopsDTWWavefront(b *testing.B) {
	for _, n := range []int{1024, 2048, 2560, 4096} {
		x, y := benchSeries(n)
		d := DTW{DeltaPercent: 10}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.DistanceWavefront(x, y)
			}
		})
	}
}

func BenchmarkHotloopsMSMScalar(b *testing.B) {
	for _, n := range []int{448, 512, 768, 1024} {
		x, y := benchSeries(n)
		p := MSM{C: 0.5}.dp(x, y)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.Serial(math.Inf(1))
			}
		})
	}
}

func BenchmarkHotloopsMSMWavefront(b *testing.B) {
	for _, n := range []int{448, 512, 768, 1024} {
		x, y := benchSeries(n)
		m := MSM{C: 0.5}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.DistanceWavefront(x, y)
			}
		})
	}
}

func BenchmarkHotloopsMSMDistance(b *testing.B) {
	x, y := benchSeries(256)
	m := MSM{C: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Distance(x, y)
	}
}

func BenchmarkHotloopsTWEDistance(b *testing.B) {
	x, y := benchSeries(256)
	tw := TWE{Lambda: 1, Nu: 0.0001}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tw.Distance(x, y)
	}
}
