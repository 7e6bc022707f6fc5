package oracle

import (
	"fmt"
	"math"
	"math/rand"
)

// Input is one fuzz case: a pair of equal-length series plus the flags the
// harness uses to decide which checks apply.
type Input struct {
	Name string
	X, Y []float64
	// Finite is false when either series contains NaN or +/-Inf.
	Finite bool
	// Extreme marks magnitudes large enough that squaring overflows,
	// which FiniteOnly measures treat like non-finite input.
	Extreme bool
}

// Lengths are the series lengths every generated scenario is instantiated
// at: the empty pair, a single point, short series below the minimum band
// width, and lengths around the FFT padding boundary (32 is a power of two,
// 33 forces padding).
var Lengths = []int{0, 1, 2, 3, 7, 32, 33}

// Corpus builds the deterministic fuzz corpus for one seed: every scenario
// at every length, randomized draws from the seeded generator. The same
// seed always yields the same corpus.
func Corpus(seed int64) []Input {
	rng := rand.New(rand.NewSource(seed))
	var in []Input
	add := func(name string, n int, x, y []float64) {
		in = append(in, classify(fmt.Sprintf("%s/len=%d", name, n), x, y))
	}
	for _, n := range Lengths {
		add("gaussian", n, randn(rng, n, 1), randn(rng, n, 1))
		add("walk", n, walk(rng, n), walk(rng, n))
		add("const-equal", n, constant(n, 1.5), constant(n, 1.5))
		add("const-diff", n, constant(n, -2), constant(n, 3))
		add("const-vs-random", n, constant(n, 0.5), randn(rng, n, 1))
		add("zeros", n, constant(n, 0), constant(n, 0))
		add("zeros-vs-random", n, constant(n, 0), randn(rng, n, 1))
		ix, iy := dup(randn(rng, n, 1))
		add("identical", n, ix, iy)
		nx, ny := nearDup(rng, randn(rng, n, 1))
		add("near-duplicate", n, nx, ny)
		add("positive", n, positive(rng, n), positive(rng, n))
		add("negative", n, negate(positive(rng, n)), negate(positive(rng, n)))
		add("tiny", n, randn(rng, n, 1e-8), randn(rng, n, 1e-8))
		add("large", n, randn(rng, n, 1e6), randn(rng, n, 1e6))
		if n > 0 {
			add("extreme", n, randn(rng, n, 1e200), randn(rng, n, 1e200))
			add("nan-single", n, poison(randn(rng, n, 1), n/2, math.NaN()), randn(rng, n, 1))
			add("nan-both", n, poison(randn(rng, n, 1), 0, math.NaN()),
				poison(randn(rng, n, 1), n-1, math.NaN()))
			add("all-nan", n, constant(n, math.NaN()), randn(rng, n, 1))
			add("posinf", n, poison(randn(rng, n, 1), n/2, math.Inf(1)), randn(rng, n, 1))
			add("neginf", n, randn(rng, n, 1), poison(randn(rng, n, 1), n/2, math.Inf(-1)))
			add("inf-vs-inf", n, poison(randn(rng, n, 1), 0, math.Inf(1)),
				poison(randn(rng, n, 1), 0, math.Inf(1)))
		}
	}
	return in
}

// classify fills the Finite/Extreme flags from the data.
func classify(name string, x, y []float64) Input {
	in := Input{Name: name, X: x, Y: y, Finite: true}
	check := func(s []float64) {
		for _, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				in.Finite = false
			}
			if math.Abs(v) > 1e150 {
				in.Extreme = true
			}
		}
	}
	check(x)
	check(y)
	return in
}

// EngineSets builds the small query/reference sets of the engine
// differential: seeded random series salted with exact duplicates (so
// every measure produces exact-distance ties that stress tie-breaking) and
// a constant row. With positive set, all values are shifted strictly
// positive for the probability-style measures.
func EngineSets(seed int64, positive bool) (queries, refs [][]float64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	const n, m = 9, 16
	gen := func() []float64 {
		s := randn(rng, m, 1)
		if positive {
			for i := range s {
				s[i] = math.Abs(s[i]) + 0.1
			}
		}
		return s
	}
	refs = make([][]float64, n)
	for i := range refs {
		refs[i] = gen()
	}
	// Duplicate rows: a query tied between refs[0] and refs[3] (or refs[1]
	// and refs[6]) must resolve to the lower index in both engines.
	refs[3] = append([]float64(nil), refs[0]...)
	refs[6] = append([]float64(nil), refs[1]...)
	refs[7] = constant(m, 0.5)
	queries = make([][]float64, 5)
	for i := range queries {
		queries[i] = gen()
	}
	queries[1] = append([]float64(nil), refs[0]...)
	queries[3] = constant(m, 0.5)
	return queries, refs
}

// engineBlock is the block length of the search engine's 1-NN scan: a
// lone query's references are scanned in blocks of this many, all
// starting from one seed incumbent.
const engineBlock = 64

// blockSets builds the engine differential's multi-block sets: 2 blocks
// plus 9 references, so that one query's scan spans three blocks. Values
// are small integers, so distinct series tie in distance and an abandoned
// distance can land exactly on the incumbent's. Exact duplicates sit on
// both sides of each block boundary (63 and 64, 127 and 128, and 2, 66
// and 130 across all three), and the queries copy 64 and 130. The last
// query is +Inf at one point, as is reference 70 (in the second block,
// so a seed there has lower-index rivals): every DTW distance of that
// query is +Inf or NaN, yet reference 70's lower bound is finite.
// Reference 0 is +Inf at another point, so every DTW distance of its
// leave-one-out row is +Inf and its own lower bound against itself is 0:
// a seed at the excluded row would answer with that row.
func blockSets(seed int64) (queries, refs [][]float64) {
	rng := rand.New(rand.NewSource(seed ^ 0xb10c))
	const n, m, inf, inf0 = 2*engineBlock + 9, 16, 5, 9
	gen := func() []float64 {
		s := make([]float64, m)
		for i := range s {
			s[i] = float64(rng.Intn(7) - 3)
		}
		return s
	}
	refs = make([][]float64, n)
	for i := range refs {
		refs[i] = gen()
	}
	for _, dup := range [][2]int{{63, 64}, {127, 128}, {2, 66}, {2, 130}} {
		refs[dup[1]] = append([]float64(nil), refs[dup[0]]...)
	}
	refs[70][inf] = math.Inf(1)
	refs[0][inf0] = math.Inf(1)
	queries = [][]float64{gen(), gen(), append([]float64(nil), refs[64]...),
		append([]float64(nil), refs[130]...), constant(m, 1), gen()}
	queries[len(queries)-1][inf] = math.Inf(1)
	return queries, refs
}

// blockPoison returns copies of blockSets' sets with NaN, +Inf and -Inf
// planted in a reference of each block and in the first query.
func blockPoison(queries, refs [][]float64) (pq, pr [][]float64) {
	pq = append([][]float64(nil), queries...)
	pr = append([][]float64(nil), refs...)
	plant := func(s []float64, at int, v float64) []float64 {
		return poison(append([]float64(nil), s...), at, v)
	}
	pr[1] = plant(pr[1], 3, math.NaN())
	pr[65] = plant(pr[65], 12, math.Inf(1))
	pr[129] = plant(pr[129], 0, math.Inf(-1))
	pq[0] = plant(pq[0], 7, math.NaN())
	return pq, pr
}

func randn(rng *rand.Rand, n int, scale float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * scale
	}
	return s
}

func walk(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64() * 0.3
		s[i] = v
	}
	return s
}

func constant(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func positive(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()*2 + 0.1
	}
	return s
}

func negate(s []float64) []float64 {
	for i := range s {
		s[i] = -s[i]
	}
	return s
}

func dup(x []float64) ([]float64, []float64) {
	y := make([]float64, len(x))
	copy(y, x)
	return x, y
}

func nearDup(rng *rand.Rand, x []float64) ([]float64, []float64) {
	y := make([]float64, len(x))
	for i := range x {
		y[i] = x[i] + rng.NormFloat64()*1e-9
	}
	return x, y
}

func poison(s []float64, at int, v float64) []float64 {
	if len(s) > 0 {
		s[at] = v
	}
	return s
}
