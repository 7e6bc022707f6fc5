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
	return pairDistance(x, y, s.sumExp)
}

// pairDistance is SINK's pair arithmetic in fresh buffers with sum as the
// reduction of each cross-correlation sequence.
func pairDistance(x, y []float64, sum func(cc []float64, den float64) float64) float64 {
	prep := func(v []float64) (*fft.Plan, float64, float64) {
		var ss float64
		for _, e := range v {
			ss += e * e
		}
		p, norm := fft.NewPlan(v), math.Sqrt(ss)
		cc := p.CrossCorrelateTo(p, make([]float64, max(2*len(v)-1, 0)), make([]complex128, p.PaddedLen()/2))
		return p, norm, sum(cc, norm*norm)
	}
	px, nx, sx := prep(x)
	py, ny, sy := prep(y)
	cc := px.CrossCorrelateTo(py, make([]float64, max(2*len(x)-1, 0)), make([]complex128, px.PaddedLen()/2))
	return normalized(sum(cc, nx*ny), sx, sy)
}

// mathExpSum is SINK's sum with one math.Exp per term, over the same
// arguments in the same order: the reference sumExp's table exponential is
// measured against.
func mathExpSum(gamma float64) func(cc []float64, den float64) float64 {
	return func(cc []float64, den float64) float64 {
		if den == 0 {
			return float64(len(cc))
		}
		var sum float64
		for _, v := range cc {
			sum += math.Exp(gamma * v / den)
		}
		return sum
	}
}

// sinkExpULP is sumExp's stated per-term bound: each term is within this
// many ulp of math.Exp of the same argument (DESIGN.md §11).
const sinkExpULP = 2

// sinkDistanceTol bounds how far a SINK distance may move from the
// math.Exp loop's. Each of the pair's three sums is within a relative
// 2*sinkExpULP*2^-53 of that loop's, before the two loops' own additions
// round apart, and the distance 1 - kxy/sqrt(kxx*kyy) compounds three
// sums; 9,000 random pairs moved by at most 2.5*2^-52.
const sinkDistanceTol = 8 * 0x1p-52

// expULPs returns how many float64 steps separate two positive finite
// values: their bit patterns are ordered as the values are.
func expULPs(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	if d < 0 {
		d = -d
	}
	return d
}

// TestSINKExpWithinBound sweeps sumExp's table exponential over its whole
// range, |a| <= 708 in steps of 2^-10, plus a million random arguments in
// SINK's usual |a| <= 20, one term at a time (gamma 1 and den 1 keep the
// argument exact): each term must be within sinkExpULP of math.Exp. The
// arguments that fall back to math.Exp, and exp(±0) = 1, must be its bits.
func TestSINKExpWithinBound(t *testing.T) {
	s := SINK{Gamma: 1}
	term := []float64{0}
	check := func(a float64) {
		term[0] = a
		got, want := s.sumExp(term, 1), math.Exp(a)
		if d := expULPs(got, want); d > sinkExpULP {
			t.Fatalf("exp(%v) = %v, math.Exp %v: %d ulp apart, bound %d", a, got, want, d, sinkExpULP)
		}
	}
	for a := -float64(expMaxArg); a <= expMaxArg; a += 0x1p-10 {
		check(a)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1_000_000; i++ {
		check(40*rng.Float64() - 20)
	}
	for _, a := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.Nextafter(expMaxArg, 1000), -math.Nextafter(expMaxArg, 1000),
		709, 709.78, 709.79, 710, 1000, math.MaxFloat64,
		-709, -720, -745, -745.2, -746, -1000, -math.MaxFloat64,
	} {
		term[0] = a
		got, want := s.sumExp(term, 1), math.Exp(a)
		if !sameValue(got, want) || math.Signbit(got) != math.Signbit(want) {
			t.Errorf("exp(%v) = %v, want math.Exp's %v", a, got, want)
		}
	}
}

// TestSINKMatchesMathExpSum compares SINK distances with the math.Exp
// loop's at gamma 1 and 20, the ends of the SINK grid, and the default 5,
// on random pairs of lengths 1 to 200, half of them near neighbours.
func TestSINKMatchesMathExpSum(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, gamma := range []float64{1, 5, 20} {
		s, ref := SINK{Gamma: gamma}, mathExpSum(gamma)
		for i := 0; i < 1000; i++ {
			n := 1 + rng.Intn(200)
			x, y := randSeries(rng, n), randSeries(rng, n)
			if i%2 == 0 {
				for j := range y {
					y[j] = x[j] + 0.1*y[j]
				}
			}
			got, want := s.Distance(x, y), pairDistance(x, y, ref)
			if math.Abs(got-want) > sinkDistanceTol {
				t.Fatalf("gamma %g n %d: d = %v, math.Exp loop %v", gamma, n, got, want)
			}
		}
	}
}

// TestSINKTinyNorms scales series by 1e-150 to 1e-162, where the product
// of two norms goes subnormal and then underflows: the distances must stay
// within sinkDistanceTol of the math.Exp loop's. Hoisting gamma/den out of
// sumExp's loop unguarded fails here: from about 1e-155 gamma/den
// overflows to +Inf, and d(x, y) and d(x, x) jump to 1.
func TestSINKTinyNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, gamma := range []float64{1, 5, 20} {
		s, ref := SINK{Gamma: gamma}, mathExpSum(gamma)
		for e := 150; e <= 162; e++ {
			scale := math.Pow(10, -float64(e))
			x, y := randSeries(rng, 64), randSeries(rng, 64)
			for j := range x {
				x[j] *= scale
				y[j] *= scale
			}
			for _, p := range [][2][]float64{{x, y}, {y, x}, {x, x}} {
				got, want := s.Distance(p[0], p[1]), pairDistance(p[0], p[1], ref)
				if !(math.Abs(got-want) <= sinkDistanceTol) {
					t.Fatalf("gamma %g scale 1e-%d: d = %v, math.Exp loop %v", gamma, e, got, want)
				}
			}
		}
	}
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
