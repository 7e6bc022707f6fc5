package oracle

// Multivariate differential harness: independent full-matrix reference DPs
// for the dependent elastic measures, reference masked lock-step
// implementations restating the valid-pair/min-support conventions, a
// seeded corpus with NaN/Inf poisoning and ragged (unequal-length) pairs,
// and the d=1 reduction route — every plain multivariate measure at one
// channel must be bitwise identical to its univariate counterpart on the
// univariate corpus.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/elastic"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/multivariate"
)

// MVRef is a reference distance over two multivariate series.
type MVRef func(x, y multivariate.Series) float64

// MVPair couples an optimized multivariate measure with its reference.
type MVPair struct {
	M   multivariate.Measure
	Ref MVRef
	Tol float64
	// Lockstep marks measures that require equal lengths: the harness
	// checks that ragged pairs panic instead of running the oracle route.
	Lockstep bool
	// FiniteOnly skips oracle agreement on non-finite input (soft-DTW's
	// exp/log pipeline localizes NaN differently than the reference).
	FiniteOnly bool
}

// MVPairs returns the multivariate differential registry.
func MVPairs() []MVPair {
	return []MVPair{
		{M: multivariate.Euclidean{}, Ref: refMVEuclidean, Tol: TolExact, Lockstep: true},
		{M: multivariate.DTWDependent{DeltaPercent: 10}, Ref: refMVDTW(10), Tol: TolExact},
		{M: multivariate.DTWDependent{DeltaPercent: 100}, Ref: refMVDTW(100), Tol: TolExact},
		{M: multivariate.ERPDependent{G: 0}, Ref: refMVERP(0), Tol: TolExact},
		{M: multivariate.MSMDependent{C: 0.5}, Ref: refMVMSM(0.5), Tol: TolExact},
		{M: multivariate.DTWIndependent{DeltaPercent: 10}, Ref: refMVDTWI(10), Tol: TolExact, Lockstep: true},
		{M: multivariate.Independent{Base: lockstep.Manhattan()}, Ref: refMVIndepManhattan, Tol: TolExact, Lockstep: true},
		{M: multivariate.MaskedEuclidean(0), Ref: refMVMasked(false, 0), Tol: TolExact, Lockstep: true},
		{M: multivariate.MaskedEuclidean(0.5), Ref: refMVMasked(false, 0.5), Tol: TolExact, Lockstep: true},
		{M: multivariate.MaskedManhattan(0), Ref: refMVMasked(true, 0), Tol: TolExact, Lockstep: true},
		{M: multivariate.MaskedManhattan(0.25), Ref: refMVMasked(true, 0.25), Tol: TolExact, Lockstep: true},
		{M: multivariate.SoftDTW{Gamma: 1}, Ref: refMVSoftDTW(1, false), Tol: TolLogSpace, FiniteOnly: true},
		{M: multivariate.SoftDTW{Gamma: 0.1, Normalize: true}, Ref: refMVSoftDTW(0.1, true), Tol: TolLogSpace, FiniteOnly: true},
	}
}

//
// ---- multivariate reference implementations ----
//

func mvL2Sq(a, b []float64) float64 {
	var s float64
	for k := range a {
		d := a[k] - b[k]
		s += d * d
	}
	return s
}

func mvL1(a, b []float64) float64 {
	var s float64
	for k := range a {
		s += math.Abs(a[k] - b[k])
	}
	return s
}

func refMVEuclidean(x, y multivariate.Series) float64 {
	var s float64
	for t := range x {
		s += mvL2Sq(x[t], y[t])
	}
	return math.Sqrt(s)
}

// mvMatrix allocates a full (m+1)-by-(n+1) DP table.
func mvMatrix(m, n int, fill float64) [][]float64 {
	t := make([][]float64, m+1)
	for i := range t {
		t[i] = make([]float64, n+1)
		for j := range t[i] {
			t[i][j] = fill
		}
	}
	return t
}

// mvWindow restates the m-by-n band convention: the percentage window of
// the longer series, widened to the length difference.
func mvWindow(deltaPercent, m, n int) int {
	w := window(deltaPercent, maxInt(m, n))
	if diff := maxInt(m, n) - minInt(m, n); w < diff {
		w = diff
	}
	return w
}

// refMVDTW: banded dependent DTW over the full m-by-n matrix, squared
// Euclidean point cost.
func refMVDTW(deltaPercent int) MVRef {
	return func(x, y multivariate.Series) float64 {
		m, n := len(x), len(y)
		if m == 0 && n == 0 {
			return 0
		}
		if m == 0 || n == 0 {
			return math.Inf(1)
		}
		w := mvWindow(deltaPercent, m, n)
		t := mvMatrix(m, n, math.Inf(1))
		t[0][0] = 0
		for i := 1; i <= m; i++ {
			for j := maxInt(1, i-w); j <= minInt(n, i+w); j++ {
				t[i][j] = mvL2Sq(x[i-1], y[j-1]) + min3(t[i-1][j-1], t[i-1][j], t[i][j-1])
			}
		}
		return t[m][n]
	}
}

// refMVERP: dependent ERP over the full m-by-n matrix, L1 point and gap
// costs against the constant gap vector (g on every channel).
func refMVERP(g float64) MVRef {
	gap := func(p []float64) float64 {
		var s float64
		for k := range p {
			s += math.Abs(p[k] - g)
		}
		return s
	}
	return func(x, y multivariate.Series) float64 {
		m, n := len(x), len(y)
		t := mvMatrix(m, n, 0)
		for i := 1; i <= m; i++ {
			t[i][0] = t[i-1][0] + gap(x[i-1])
		}
		for j := 1; j <= n; j++ {
			t[0][j] = t[0][j-1] + gap(y[j-1])
		}
		for i := 1; i <= m; i++ {
			for j := 1; j <= n; j++ {
				t[i][j] = math.Min(
					t[i-1][j-1]+mvL1(x[i-1], y[j-1]),
					math.Min(t[i-1][j]+gap(x[i-1]), t[i][j-1]+gap(y[j-1])),
				)
			}
		}
		return t[m][n]
	}
}

// refMVMSM: dependent MSM over the full m-by-n table, L1 move cost and the
// componentwise-betweenness split/merge cost.
func refMVMSM(c float64) MVRef {
	cost := func(p, a, b []float64) float64 {
		between := true
		for k := range p {
			if !((a[k] <= p[k] && p[k] <= b[k]) || (b[k] <= p[k] && p[k] <= a[k])) {
				between = false
			}
		}
		if between {
			return c
		}
		var dpa, dpb float64
		for k := range p {
			dpa += math.Abs(p[k] - a[k])
			dpb += math.Abs(p[k] - b[k])
		}
		return c + math.Min(dpa, dpb)
	}
	return func(x, y multivariate.Series) float64 {
		m, n := len(x), len(y)
		if m == 0 && n == 0 {
			return 0
		}
		if m == 0 || n == 0 {
			return math.Inf(1)
		}
		t := make([][]float64, m)
		for i := range t {
			t[i] = make([]float64, n)
		}
		t[0][0] = mvL1(x[0], y[0])
		for j := 1; j < n; j++ {
			t[0][j] = t[0][j-1] + cost(y[j], x[0], y[j-1])
		}
		for i := 1; i < m; i++ {
			t[i][0] = t[i-1][0] + cost(x[i], x[i-1], y[0])
			for j := 1; j < n; j++ {
				t[i][j] = math.Min(
					t[i-1][j-1]+mvL1(x[i], y[j]),
					math.Min(t[i-1][j]+cost(x[i], x[i-1], y[j]), t[i][j-1]+cost(y[j], x[i], y[j-1])),
				)
			}
		}
		return t[m-1][n-1]
	}
}

// refMVDTWI: independent DTW as the sum of the univariate banded reference
// DTW over each channel.
func refMVDTWI(deltaPercent int) MVRef {
	uni := refDTW(deltaPercent)
	return func(x, y multivariate.Series) float64 {
		var s float64
		for c := 0; c < x.Channels(); c++ {
			s += uni(x.Channel(c), y.Channel(c))
		}
		return s
	}
}

// refMVIndepManhattan: the Manhattan lift as per-channel sums.
func refMVIndepManhattan(x, y multivariate.Series) float64 {
	var s float64
	for c := 0; c < x.Channels(); c++ {
		for t := range x {
			s += math.Abs(x[t][c] - y[t][c])
		}
	}
	return s
}

// refMVMasked restates the masked lock-step conventions: a pair is valid
// when both samples are non-NaN, each channel's cost over valid pairs is
// rescaled by n/valid, channels below ceil(minSupport*n) valid pairs (or
// with none at all) are dropped, and the result is the mean over surviving
// channels, +Inf when none survive.
func refMVMasked(manhattan bool, minSupport float64) MVRef {
	return func(x, y multivariate.Series) float64 {
		n := len(x)
		if n == 0 {
			return 0
		}
		minValid := int(math.Ceil(minSupport * float64(n)))
		if minValid < 1 {
			minValid = 1
		}
		var total float64
		kept := 0
		for c := 0; c < x.Channels(); c++ {
			var sum float64
			valid := 0
			for t := 0; t < n; t++ {
				a, b := x[t][c], y[t][c]
				if math.IsNaN(a) || math.IsNaN(b) {
					continue
				}
				valid++
				if manhattan {
					sum += math.Abs(a - b)
				} else {
					d := a - b
					sum += d * d
				}
			}
			if valid < minValid {
				continue
			}
			sum *= float64(n) / float64(valid)
			if !manhattan {
				sum = math.Sqrt(sum)
			}
			total += sum
			kept++
		}
		if kept == 0 {
			return math.Inf(1)
		}
		return total / float64(kept)
	}
}

// refMVSoftDTW: soft-DTW over the full m-by-n matrix with the stabilized
// log-sum-exp soft minimum; optionally self-distance normalized.
func refMVSoftDTW(gamma float64, normalize bool) MVRef {
	softmin := func(a, b, c float64) float64 {
		mn := math.Min(a, math.Min(b, c))
		if math.IsInf(mn, 1) {
			return mn
		}
		return mn - gamma*math.Log(math.Exp((mn-a)/gamma)+math.Exp((mn-b)/gamma)+math.Exp((mn-c)/gamma))
	}
	raw := func(x, y multivariate.Series) float64 {
		m, n := len(x), len(y)
		if m == 0 && n == 0 {
			return 0
		}
		if m == 0 || n == 0 {
			return math.Inf(1)
		}
		t := mvMatrix(m, n, math.Inf(1))
		t[0][0] = 0
		for i := 1; i <= m; i++ {
			for j := 1; j <= n; j++ {
				t[i][j] = mvL2Sq(x[i-1], y[j-1]) + softmin(t[i-1][j-1], t[i-1][j], t[i][j-1])
			}
		}
		return t[m][n]
	}
	if !normalize {
		return raw
	}
	return func(x, y multivariate.Series) float64 {
		return math.Abs(raw(x, y) - 0.5*(raw(x, x)+raw(y, y)))
	}
}

//
// ---- multivariate corpus ----
//

// MVInput is one multivariate fuzz case.
type MVInput struct {
	Name    string
	X, Y    multivariate.Series
	Finite  bool
	Extreme bool
	// Ragged marks unequal-length pairs, which lock-step measures must
	// reject by panicking.
	Ragged bool
}

func mvClassify(name string, x, y multivariate.Series) MVInput {
	in := MVInput{Name: name, X: x, Y: y, Finite: true, Ragged: len(x) != len(y)}
	check := func(s multivariate.Series) {
		for _, row := range s {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					in.Finite = false
				}
				if math.Abs(v) > 1e150 {
					in.Extreme = true
				}
			}
		}
	}
	check(x)
	check(y)
	return in
}

func randnMV(rng *rand.Rand, n, d int, scale float64) multivariate.Series {
	s := make(multivariate.Series, n)
	for t := range s {
		s[t] = make([]float64, d)
		for c := range s[t] {
			s[t][c] = rng.NormFloat64() * scale
		}
	}
	return s
}

func constantMV(n, d int, v float64) multivariate.Series {
	s := make(multivariate.Series, n)
	for t := range s {
		s[t] = make([]float64, d)
		for c := range s[t] {
			s[t][c] = v
		}
	}
	return s
}

func poisonMV(s multivariate.Series, at, ch int, v float64) multivariate.Series {
	if len(s) > 0 {
		s[at][ch%len(s[at])] = v
	}
	return s
}

// MVCorpus builds the deterministic multivariate fuzz corpus for one seed:
// every scenario at channel counts 1..3 and a spread of lengths, including
// NaN- and Inf-poisoned panels, an all-NaN channel, and ragged
// (unequal-length) pairs.
func MVCorpus(seed int64) []MVInput {
	rng := rand.New(rand.NewSource(seed ^ 0x6d76))
	var in []MVInput
	add := func(name string, d int, x, y multivariate.Series) {
		in = append(in, mvClassify(fmt.Sprintf("%s/d=%d/len=%d:%d", name, d, len(x), len(y)), x, y))
	}
	for _, d := range []int{1, 2, 3} {
		for _, n := range []int{0, 1, 2, 3, 7, 16} {
			add("gaussian", d, randnMV(rng, n, d, 1), randnMV(rng, n, d, 1))
			add("const-diff", d, constantMV(n, d, -2), constantMV(n, d, 3))
			x := randnMV(rng, n, d, 1)
			ident := make(multivariate.Series, n)
			for t := range ident {
				ident[t] = append([]float64(nil), x[t]...)
			}
			add("identical", d, x, ident)
			add("tiny-vs-large", d, randnMV(rng, n, d, 1e-8), randnMV(rng, n, d, 1e6))
			if n > 0 {
				add("nan-single", d, poisonMV(randnMV(rng, n, d, 1), n/2, 0, math.NaN()), randnMV(rng, n, d, 1))
				add("nan-both", d, poisonMV(randnMV(rng, n, d, 1), 0, 0, math.NaN()),
					poisonMV(randnMV(rng, n, d, 1), n-1, d-1, math.NaN()))
				add("posinf", d, poisonMV(randnMV(rng, n, d, 1), n/2, d-1, math.Inf(1)), randnMV(rng, n, d, 1))
				add("neginf", d, randnMV(rng, n, d, 1), poisonMV(randnMV(rng, n, d, 1), n/2, 0, math.Inf(-1)))
				// One channel entirely missing on one side: exercises the
				// min-support drop rule.
				allNaN := randnMV(rng, n, d, 1)
				for t := range allNaN {
					allNaN[t][0] = math.NaN()
				}
				add("nan-channel", d, allNaN, randnMV(rng, n, d, 1))
			}
			// Ragged pairs for the dependent m-by-n DPs.
			add("ragged", d, randnMV(rng, n, d, 1), randnMV(rng, n+3, d, 1))
			if n > 1 {
				add("ragged-rev", d, randnMV(rng, n+5, d, 1), randnMV(rng, n, d, 1))
			}
		}
	}
	return in
}

//
// ---- multivariate harness ----
//

type mvSymmetric interface{ Symmetric() bool }

// CheckMVPair runs the applicable contract checks for one multivariate
// measure on one input: oracle agreement, bitwise symmetry, and the
// EarlyAbandoning DistanceUpTo contract.
func CheckMVPair(r *Report, p MVPair, in MVInput) {
	name := p.M.Name()
	if p.Lockstep && in.Ragged {
		r.Checks++
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			p.M.Distance(in.X, in.Y)
		}()
		if !panicked {
			r.add(name, in.Name, "panic", "lock-step measure accepted a ragged pair")
		}
		return
	}
	wellBehaved := in.Finite && !in.Extreme

	var got float64
	if !call(r, name, in.Name, "Distance", func() { got = p.M.Distance(in.X, in.Y) }) {
		return
	}

	if !p.FiniteOnly || wellBehaved {
		r.Checks++
		want := p.Ref(in.X, in.Y)
		if !agree(got, want, p.Tol) {
			r.add(name, in.Name, "oracle", "optimized=%v reference=%v (tol %g)", got, want, p.Tol)
		}
	}

	if s, ok := p.M.(mvSymmetric); ok && s.Symmetric() {
		r.Checks++
		var rev float64
		if call(r, name, in.Name, "Distance(y,x)", func() { rev = p.M.Distance(in.Y, in.X) }) {
			if wellBehaved && !sameValue(got, rev) {
				r.add(name, in.Name, "symmetry", "d(x,y)=%v d(y,x)=%v not bitwise equal", got, rev)
			} else if !wellBehaved && !agree(got, rev, p.Tol) {
				r.add(name, in.Name, "symmetry", "d(x,y)=%v d(y,x)=%v", got, rev)
			}
		}
	}

	if ea, ok := p.M.(multivariate.EarlyAbandoning); ok {
		r.Checks++
		call(r, name, in.Name, "DistanceUpTo", func() {
			checkUpTo(r, name, in.Name, got, p.Tol, wellBehaved, func(cutoff float64) float64 {
				return ea.DistanceUpTo(in.X, in.Y, cutoff)
			})
		})
	}
}

// CheckMVPanics verifies that every multivariate measure rejects a channel
// mismatch by panicking.
func CheckMVPanics(r *Report, m multivariate.Measure) {
	r.Checks++
	x := multivariate.Series{{1, 2}, {3, 4}}
	y := multivariate.Series{{1}, {2}}
	panicked := false
	func() {
		defer func() { panicked = recover() != nil }()
		m.Distance(x, y)
	}()
	if !panicked {
		r.add(m.Name(), "channel-mismatch", "panic", "Distance(d=2, d=1) did not panic")
	}
}

// mvWrap lifts a univariate series to a one-channel multivariate series.
func mvWrap(x []float64) multivariate.Series {
	s := make(multivariate.Series, len(x))
	for t := range s {
		s[t] = []float64{x[t]}
	}
	return s
}

// uniPair couples a multivariate measure with the univariate counterpart
// it must reproduce bitwise at one channel.
type uniPair struct {
	MV  multivariate.Measure
	Uni measure.Measure
	// SkipNaN skips inputs containing NaN: the masked measures redefine
	// NaN as "missing" rather than propagating it, by design.
	SkipNaN bool
}

// CheckMVUnivariateReduction runs the d=1 reduction route over the
// univariate corpus for one seed: wrapped as one-channel panels, every
// plain multivariate measure must be bitwise identical to its univariate
// counterpart, NaN/Inf/constant/extreme inputs included. Masked measures
// are checked on NaN-free inputs only (NaN means missing there, not
// undefined) — their NaN behavior is pinned by the reference masked DPs.
func CheckMVUnivariateReduction(r *Report, seed int64) {
	couples := []uniPair{
		{MV: multivariate.Euclidean{}, Uni: lockstep.Euclidean()},
		{MV: multivariate.DTWDependent{DeltaPercent: 10}, Uni: elastic.DTW{DeltaPercent: 10}},
		{MV: multivariate.DTWDependent{DeltaPercent: 100}, Uni: elastic.DTW{DeltaPercent: 100}},
		{MV: multivariate.DTWIndependent{DeltaPercent: 10}, Uni: elastic.DTW{DeltaPercent: 10}},
		{MV: multivariate.ERPDependent{G: 0}, Uni: elastic.ERP{G: 0}},
		{MV: multivariate.MSMDependent{C: 0.5}, Uni: elastic.MSM{C: 0.5}},
		{MV: multivariate.Independent{Base: lockstep.Manhattan()}, Uni: lockstep.Manhattan()},
		{MV: multivariate.MaskedEuclidean(0), Uni: lockstep.Euclidean(), SkipNaN: true},
		{MV: multivariate.MaskedManhattan(0), Uni: lockstep.Manhattan(), SkipNaN: true},
	}
	hasNaN := func(s []float64) bool {
		for _, v := range s {
			if math.IsNaN(v) {
				return true
			}
		}
		return false
	}
	for _, in := range Corpus(seed) {
		x, y := mvWrap(in.X), mvWrap(in.Y)
		for _, c := range couples {
			if c.SkipNaN && (hasNaN(in.X) || hasNaN(in.Y)) {
				continue
			}
			r.Checks++
			name := c.MV.Name()
			var mv, uni float64
			if !call(r, name, in.Name, "d=1 MV Distance", func() { mv = c.MV.Distance(x, y) }) {
				continue
			}
			if !call(r, name, in.Name, "d=1 univariate Distance", func() { uni = c.Uni.Distance(in.X, in.Y) }) {
				continue
			}
			if !sameValue(mv, uni) {
				r.add(name, in.Name, "reduction",
					"d=1 value %v != univariate %s value %v", mv, c.Uni.Name(), uni)
			}
		}
	}
}

// FuzzMV drives the multivariate harness for one seed: every registry pair
// against every corpus input, channel-mismatch panics, and the d=1
// univariate reduction route.
func FuzzMV(seed int64) *Report {
	r := &Report{}
	corpus := MVCorpus(seed)
	for _, p := range MVPairs() {
		for _, in := range corpus {
			CheckMVPair(r, p, in)
		}
		CheckMVPanics(r, p.M)
	}
	CheckMVUnivariateReduction(r, seed)
	return r
}
