package kernel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fft"
)

// degenerateSeries mixes well-behaved random series with the degenerate
// shapes of the oracle corpus: all-zero, constant, NaN- and Inf-poisoned,
// and huge-magnitude series.
func degenerateSeries(rng *rand.Rand, n, m int) [][]float64 {
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

func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// freshBufferDistance is SINK's pair arithmetic with freshly allocated
// cross-correlation buffers for every call, the reference the pooled
// kernel must reproduce bit for bit.
func freshBufferDistance(s SINK, x, y []float64) float64 {
	prep := func(v []float64) (*fft.Plan, float64, float64) {
		var ss float64
		for _, e := range v {
			ss += e * e
		}
		p, norm := fft.NewPlan(v), math.Sqrt(ss)
		cc := p.CrossCorrelateTo(p, make([]float64, max(2*len(v)-1, 0)), make([]complex128, p.PaddedLen()/2))
		return p, norm, s.sumExp(cc, norm*norm)
	}
	px, nx, sx := prep(x)
	py, ny, sy := prep(y)
	cc := px.CrossCorrelateTo(py, make([]float64, max(2*len(x)-1, 0)), make([]complex128, px.PaddedLen()/2))
	return normalized(s.sumExp(cc, nx*ny), sx, sy)
}

// TestSINKDegenerateSeries checks the pooled prepared kernel against the
// fresh-buffer reference on degenerate series, over lengths that leave
// the pool holding buffers of every size, for every ordered pair.
func TestSINKDegenerateSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shape := range [][2]int{{1, 8}, {5, 16}, {18, 33}, {7, 1}, {6, 2}} {
		series := degenerateSeries(rng, shape[0], shape[1])
		for _, s := range []SINK{{Gamma: 1}, {Gamma: 5}, {Gamma: 20}} {
			prep := make([]any, len(series))
			for i, x := range series {
				prep[i] = s.Prepare(x)
			}
			for i := range series {
				for j := range series {
					want := freshBufferDistance(s, series[i], series[j])
					if got := s.PreparedDistance(prep[i], prep[j]); !sameValue(got, want) {
						t.Fatalf("shape %v gamma %g: d(%d,%d) = %v, fresh-buffer path %v",
							shape, s.Gamma, i, j, got, want)
					}
					if got := s.Distance(series[i], series[j]); !sameValue(got, want) {
						t.Fatalf("shape %v gamma %g: Distance(%d,%d) = %v, fresh-buffer path %v",
							shape, s.Gamma, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestSINKZeroLengthSeries pins the empty pair: two zero-length series are
// at the degenerate distance 1 on every path, and the pooled kernel sizes
// no buffer from 2*0-1.
func TestSINKZeroLengthSeries(t *testing.T) {
	s := SINK{Gamma: 5}
	for _, pair := range [][2][]float64{{nil, nil}, {{}, {}}, {nil, {}}} {
		if d := s.Distance(pair[0], pair[1]); d != 1 {
			t.Fatalf("Distance(%v, %v) = %v, want 1", pair[0], pair[1], d)
		}
		if d := s.PreparedDistance(s.Prepare(pair[0]), s.Prepare(pair[1])); d != 1 {
			t.Fatalf("PreparedDistance(%v, %v) = %v, want 1", pair[0], pair[1], d)
		}
	}
}

// TestSINKRaggedPanics: SINK compares equal-length series only; prepared
// states of different lengths panic rather than return a value.
func TestSINKRaggedPanics(t *testing.T) {
	s := SINK{Gamma: 5}
	px, py := s.Prepare([]float64{1, 2}), s.Prepare([]float64{3})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for prepared states of different lengths")
		}
	}()
	s.PreparedDistance(px, py)
}

// TestSINKPreparedAllocs pins the pooled kernel's allocation claims: a
// warm PreparedDistance allocates nothing, and Prepare allocates exactly
// its plan (struct and spectrum) and its state.
func TestSINKPreparedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	rng := rand.New(rand.NewSource(26))
	x, y := randSeries(rng, 128), randSeries(rng, 128)
	s := SINK{Gamma: 5}
	px, py := s.Prepare(x), s.Prepare(y)
	s.PreparedDistance(px, py) // warm the pool
	if n := testing.AllocsPerRun(50, func() { s.PreparedDistance(px, py) }); n != 0 {
		t.Errorf("warm PreparedDistance allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { s.Prepare(x) }); n != 3 {
		t.Errorf("Prepare allocates %v per run, want 3 (plan, spectrum, state)", n)
	}
}

// TestSINKPreparedDistanceConcurrent runs PreparedDistance from several
// goroutines over pairs of mixed lengths (run under -race by make
// check-race) and requires every value to equal the serial one bitwise.
func TestSINKPreparedDistanceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	s := SINK{Gamma: 5}
	var sets [][]any
	for _, m := range []int{0, 3, 16, 33} {
		series := degenerateSeries(rng, 6, m)
		prep := make([]any, len(series))
		for i, x := range series {
			prep[i] = s.Prepare(x)
		}
		sets = append(sets, prep)
	}
	serial := func() []float64 {
		var out []float64
		for _, prep := range sets {
			for i := range prep {
				for j := range prep {
					out = append(out, s.PreparedDistance(prep[i], prep[j]))
				}
			}
		}
		return out
	}
	want := serial()
	const goroutines = 4
	got := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = serial()
		}(g)
	}
	wg.Wait()
	for g := range got {
		for k := range want {
			if math.Float64bits(got[g][k]) != math.Float64bits(want[k]) {
				t.Fatalf("goroutine %d value %d: %v, serial %v", g, k, got[g][k], want[k])
			}
		}
	}
}
