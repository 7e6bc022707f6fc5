package oracle

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/measure"
	"repro/internal/search"
)

// wavefronter is the diagonal-blocked parallel DP route the elastic
// measures expose. Declared locally so the harness stays decoupled from
// the concrete elastic types.
type wavefronter interface {
	DistanceWavefront(x, y []float64) float64
}

// Discrepancy is one disagreement the harness found, identifying the
// measure, the input case, the contract that was violated, and the values
// involved.
type Discrepancy struct {
	Measure string
	Input   string
	Kind    string // oracle | symmetry | stateful | upto | wavefront | panel | lowerbound | nesting | panic | engine
	Detail  string
}

func (d Discrepancy) String() string {
	return fmt.Sprintf("%-22s %-28s %-10s %s", d.Measure, d.Input, d.Kind, d.Detail)
}

// Report accumulates harness results: the number of individual checks run
// and every discrepancy found.
type Report struct {
	Checks        int
	Discrepancies []Discrepancy
}

func (r *Report) add(measureName, input, kind, format string, args ...any) {
	r.Discrepancies = append(r.Discrepancies, Discrepancy{
		Measure: measureName, Input: input, Kind: kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// String renders the structured report: a per-kind summary followed by one
// line per discrepancy.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oracle harness: %d checks, %d discrepancies\n", r.Checks, len(r.Discrepancies))
	if len(r.Discrepancies) == 0 {
		return b.String()
	}
	byKind := map[string]int{}
	for _, d := range r.Discrepancies {
		byKind[d.Kind]++
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %s: %d\n", k, byKind[k])
	}
	fmt.Fprintf(&b, "%-22s %-28s %-10s %s\n", "MEASURE", "INPUT", "KIND", "DETAIL")
	for _, d := range r.Discrepancies {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// agree reports whether two distance values match within the pair's
// relative tolerance, after the evaluation layer's NaN -> +Inf
// sanitization (the only view downstream code ever sees).
func agree(a, b, tol float64) bool {
	a, b = measure.Sanitize(a), measure.Sanitize(b)
	if math.Float64bits(a) == math.Float64bits(b) || a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// sameValue is bitwise equality with NaN equal to itself.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) ||
		(math.IsNaN(a) && math.IsNaN(b))
}

// call invokes f, converting a panic into a reported discrepancy; ok is
// false when f panicked.
func call(r *Report, measureName, input, kind string, f func()) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			r.add(measureName, input, "panic", "%s panicked: %v", kind, p)
		}
	}()
	f()
	return true
}

// CheckPair runs every applicable contract check for one measure on one
// input: oracle agreement, bitwise symmetry, the Stateful prepared path,
// the EarlyAbandoning DistanceUpTo contract (both the exact and the
// abandoning branch), and the LowerBounded cascade.
func CheckPair(r *Report, p Pair, in Input) {
	name := p.M.Name()
	wellBehaved := in.Finite && !in.Extreme

	var got float64
	if !call(r, name, in.Name, "Distance", func() { got = p.M.Distance(in.X, in.Y) }) {
		return
	}

	// Route 1 vs route 2: optimized against the reference implementation.
	if !p.FiniteOnly || wellBehaved {
		r.Checks++
		want := p.Ref(in.X, in.Y)
		if !agree(got, want, p.Tol) {
			r.add(name, in.Name, "oracle", "optimized=%v reference=%v (tol %g)", got, want, p.Tol)
		}
	}

	// Declared bitwise symmetry. On non-finite inputs comparison-order
	// effects may flip NaN for Inf, so only the sanitized values must
	// match there.
	if measure.IsSymmetric(p.M) {
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

	// Stateful prepared path must match the direct path.
	if sm, ok := p.M.(measure.Stateful); ok {
		r.Checks++
		call(r, name, in.Name, "PreparedDistance", func() {
			pd := sm.PreparedDistance(sm.Prepare(in.X), sm.Prepare(in.Y))
			if !agree(got, pd, p.Tol) {
				r.add(name, in.Name, "stateful", "Distance=%v PreparedDistance=%v", got, pd)
			}
		})
	}

	// EarlyAbandoning: the DistanceUpTo contract at cutoffs around got.
	if ea, ok := p.M.(measure.EarlyAbandoning); ok {
		r.Checks++
		call(r, name, in.Name, "DistanceUpTo", func() {
			checkUpTo(r, name, in.Name, got, p.Tol, wellBehaved, func(cutoff float64) float64 {
				return ea.DistanceUpTo(in.X, in.Y, cutoff)
			})
		})
	}

	// Wavefront route: the diagonal-blocked parallel DP must reproduce the
	// scalar DP bitwise on well-behaved input — the blocking reorders when
	// cells are computed, never what they are computed from. On non-finite
	// input the scalar DTW loop may exit early through an all-Inf band row
	// where the wavefront evaluates through, so there only the sanitized
	// values must agree.
	if wf, ok := p.M.(wavefronter); ok {
		r.Checks++
		call(r, name, in.Name, "DistanceWavefront", func() {
			v := wf.DistanceWavefront(in.X, in.Y)
			if wellBehaved && !sameValue(v, got) {
				r.add(name, in.Name, "wavefront",
					"wavefront=%v scalar=%v not bitwise equal", v, got)
			} else if !wellBehaved && !agree(v, got, p.Tol) {
				r.add(name, in.Name, "wavefront", "wavefront=%v scalar=%v", v, got)
			}
		})
	}

	// LowerBounded: the cascade must never exceed the true distance, and
	// contexts FillBound refills in place after filling them for a longer,
	// a shorter or the other series must give fresh contexts' bound bitwise.
	if lb, ok := p.M.(measure.LowerBounded); ok && wellBehaved {
		r.Checks++
		call(r, name, in.Name, "LowerBound", func() {
			cx, cy := lb.FillBound(nil, in.X), lb.FillBound(nil, in.Y)
			sd := measure.Sanitize(got)
			v := lb.LowerBound(in.X, in.Y, cx, cy, math.Inf(1))
			if v > sd {
				r.add(name, in.Name, "lowerbound", "LowerBound=%v > Distance=%v", v, sd)
			}
			longer := append(append([]float64(nil), in.X...), in.Y...)
			for _, used := range [][2][]float64{{longer, in.X[:len(in.X)/2]}, {in.Y, in.X}} {
				rx := lb.FillBound(lb.FillBound(nil, used[0]), in.X)
				ry := lb.FillBound(lb.FillBound(nil, used[1]), in.Y)
				if w := lb.LowerBound(in.X, in.Y, rx, ry, math.Inf(1)); !sameValue(w, v) {
					r.add(name, in.Name, "lowerbound", "refilled contexts give %v, fresh ones %v", w, v)
				}
			}
		})
	}
}

// checkUpTo runs the EarlyAbandoning DistanceUpTo contract for one pair
// whose Distance is got. Infinite and NaN cutoffs abandon nothing, so they
// must reproduce got: bitwise on well-behaved input, after sanitization
// otherwise. For a finite got, every cutoff above got must give got
// exactly, and every cutoff at or below it a certified lower bound in
// [cutoff, got]; the cutoffs one ulp either side of got and got itself are
// where a pruning rule's >= against < boundary shows.
func checkUpTo(r *Report, name, input string, got, tol float64, wellBehaved bool, upTo func(cutoff float64) float64) {
	if v := upTo(math.Inf(1)); !sameValue(v, got) {
		r.add(name, input, "upto", "DistanceUpTo(+Inf)=%v Distance=%v", v, got)
	}
	if v := upTo(math.NaN()); (wellBehaved && !sameValue(v, got)) || !agree(v, got, tol) {
		r.add(name, input, "upto", "DistanceUpTo(NaN)=%v Distance=%v", v, got)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return
	}
	for _, cutoff := range []float64{
		got*1.5 + 1, math.Nextafter(got, math.Inf(1)), got, math.Nextafter(got, math.Inf(-1)), got / 2,
	} {
		v := upTo(cutoff)
		if got < cutoff {
			// A negative distance (rounding noise on similarity-style
			// measures like cosine) puts got/2 above it, so the exact-value
			// clause of the contract applies there too.
			if !sameValue(v, got) {
				r.add(name, input, "upto",
					"cutoff=%v: below-cutoff value not exact: DistanceUpTo=%v Distance=%v", cutoff, v, got)
			}
		} else if v < cutoff || v > got {
			r.add(name, input, "upto",
				"cutoff=%v: abandoned value %v outside [cutoff, d=%v]", cutoff, v, got)
		}
	}
}

// CheckNestedBounds checks the grid monotonicity that measure.NestedBounds
// declares: on every finite corpus input, a.Distance <= b.Distance for
// every pair of g's candidates with a.DominatedBy(b). The grid engine seeds
// warm starts from these declarations and repairs a row whose bound proves
// unachievable, so a false declaration costs work, not exactness; this
// check guards the claim itself.
func CheckNestedBounds(r *Report, g eval.Grid, corpus []Input) {
	var nested []int
	for k, m := range g.Candidates {
		if _, ok := m.(measure.NestedBounds); ok {
			nested = append(nested, k)
		}
	}
	if len(nested) == 0 {
		return
	}
	d := make([]float64, len(g.Candidates))
	for _, in := range corpus {
		if !in.Finite {
			continue
		}
		for k, m := range g.Candidates {
			d[k] = m.Distance(in.X, in.Y)
		}
		for _, a := range nested {
			nb := g.Candidates[a].(measure.NestedBounds)
			for b, other := range g.Candidates {
				if b == a || !nb.DominatedBy(other) {
					continue
				}
				r.Checks++
				if !(d[a] <= d[b]) {
					r.add(nb.Name(), in.Name, "nesting", "%v > %s = %v, which it declares dominates it",
						d[a], other.Name(), d[b])
				}
			}
		}
	}
}

// CheckPanicsOnMismatch verifies the documented contract that equal-length
// measures reject mismatched series lengths by panicking rather than
// reading out of bounds or returning garbage — on every route the search
// engines call (Distance, the wavefront, DistanceUpTo and the lower-bound
// cascade), the pruned routes in both argument orders. They run with a
// zero cutoff, at which a route may stop after its first step, so the
// length check must come before any early exit.
func CheckPanicsOnMismatch(r *Report, m measure.Measure) {
	r.Checks++
	x := []float64{1, 2, 3, 4}
	y := []float64{1, 2}
	mustPanic := func(route string, a, b []float64, f func(a, b []float64)) {
		panicked := false
		func() {
			defer func() { panicked = recover() != nil }()
			f(a, b)
		}()
		if !panicked {
			r.add(m.Name(), "mismatched-lengths", "panic", "%s(len %d, len %d) did not panic", route, len(a), len(b))
		}
	}
	mustPanic("Distance", x, y, func(a, b []float64) { m.Distance(a, b) })
	if wf, ok := m.(wavefronter); ok {
		r.Checks++
		mustPanic("DistanceWavefront", x, y, func(a, b []float64) { wf.DistanceWavefront(a, b) })
	}
	if ea, ok := m.(measure.EarlyAbandoning); ok {
		r.Checks++
		upTo := func(a, b []float64) { ea.DistanceUpTo(a, b, 0) }
		mustPanic("DistanceUpTo", x, y, upTo)
		mustPanic("DistanceUpTo", y, x, upTo)
	}
	if lb, ok := m.(measure.LowerBounded); ok {
		r.Checks++
		bound := func(a, b []float64) {
			lb.LowerBound(a, b, lb.FillBound(nil, a), lb.FillBound(nil, b), 0)
		}
		mustPanic("LowerBound", x, y, bound)
		mustPanic("LowerBound", y, x, bound)
	}
}

// CheckPanel runs the batched panel route differential for one
// PanelEvaluator: PanelDistancesUpTo at a +Inf cutoff against per-pair
// Distance bitwise, at finite cutoffs under the per-candidate
// early-abandoning contract (exact below the cutoff, a certified value in
// [cutoff, distance] at or above it), and the ragged-length decline rule.
func CheckPanel(r *Report, pe measure.PanelEvaluator, q []float64, panel [][]float64, input string) {
	name := pe.Name()
	exact := make([]float64, len(panel))
	if !call(r, name, input, "Distance", func() {
		for k := range panel {
			exact[k] = pe.Distance(q, panel[k])
		}
	}) {
		return
	}

	r.Checks++
	call(r, name, input, "PanelDistancesUpTo(+Inf)", func() {
		out := make([]float64, len(panel))
		if !pe.PanelDistancesUpTo(q, panel, math.Inf(1), out) {
			r.add(name, input, "panel", "declined a uniform-length panel")
			return
		}
		for k := range out {
			if !sameValue(out[k], exact[k]) {
				r.add(name, input, "panel",
					"candidate %d: panel=%v scalar=%v not bitwise equal", k, out[k], exact[k])
				return
			}
		}
	})

	r.Checks++
	call(r, name, input, "PanelDistancesUpTo", func() {
		// 0 and a finite exact distance place real cutoffs inside the
		// panel's value range.
		cutoffs := []float64{0}
		for _, d := range exact {
			if !math.IsNaN(d) && !math.IsInf(d, 0) {
				cutoffs = append(cutoffs, d)
				break
			}
		}
		for _, cutoff := range cutoffs {
			out := make([]float64, len(panel))
			if !pe.PanelDistancesUpTo(q, panel, cutoff, out) {
				r.add(name, input, "panel", "UpTo declined a uniform-length panel")
				return
			}
			for k := range out {
				d := exact[k]
				// NaN distances pass vacuously: every comparison below is
				// false, which is exactly the contract (any value is a
				// lower bound of the sanitized +Inf).
				if d < cutoff {
					if !sameValue(out[k], d) {
						r.add(name, input, "panel",
							"cutoff=%v candidate %d: below-cutoff value %v != exact %v",
							cutoff, k, out[k], d)
						return
					}
				} else if out[k] < cutoff || out[k] > d {
					r.add(name, input, "panel",
						"cutoff=%v candidate %d: %v outside [cutoff, %v]", cutoff, k, out[k], d)
					return
				}
			}
		}
	})

	// Ragged panels must be declined, not evaluated or panicked on.
	if len(panel) >= 2 && len(q) > 0 {
		r.Checks++
		call(r, name, input, "PanelDistancesUpTo(ragged)", func() {
			ragged := append([][]float64(nil), panel...)
			ragged[len(ragged)-1] = ragged[len(ragged)-1][:len(q)-1]
			out := make([]float64, len(ragged))
			for _, cutoff := range []float64{math.Inf(1), 1} {
				if pe.PanelDistancesUpTo(q, ragged, cutoff, out) {
					r.add(name, input, "panel", "accepted a ragged panel at cutoff %v", cutoff)
				}
			}
		})
	}
}

// CheckEngines runs the third differential route: the pruned search engine
// against exhaustive matrix evaluation, for 1-NN (queries vs refs, as one
// batch and each query alone, whose blocks take the engine's lone-query
// dispatch) and leave-one-out over refs. Neighbors must match exactly —
// including ties — and so must the reported distances.
func CheckEngines(r *Report, m measure.Measure, queries, refs [][]float64) {
	checkOneNN(r, m, queries, refs)
	checkLeaveOneOut(r, m, refs)
}

// checkOneNN is CheckEngines' 1-NN half.
func checkOneNN(r *Report, m measure.Measure, queries, refs [][]float64) {
	name := m.Name()
	call(r, name, "engine", "OneNN", func() {
		r.Checks++
		e := eval.Matrix(m, queries, refs)
		want := eval.Neighbors(e)
		check := func(route string, i, got int, gotDist float64) {
			if got != want[i] {
				r.add(name, fmt.Sprintf("%s/query=%d", route, i), "engine",
					"pruned neighbor %d, matrix neighbor %d", got, want[i])
			} else if want[i] >= 0 && !sameValue(gotDist, e[i][want[i]]) {
				r.add(name, fmt.Sprintf("%s/query=%d", route, i), "engine",
					"pruned distance %v, matrix distance %v", gotDist, e[i][want[i]])
			}
		}
		got, _ := search.OneNNCtx(context.Background(), m, queries, refs)
		for i := range want {
			check("onenn", i, got.Indices[i], got.Distances[i])
		}
		for i := range queries {
			one, _ := search.OneNNCtx(context.Background(), m, queries[i:i+1], refs)
			check("onenn-lone", i, one.Indices[0], one.Distances[0])
		}
	})
}

// checkLeaveOneOut is CheckEngines' leave-one-out half.
func checkLeaveOneOut(r *Report, m measure.Measure, refs [][]float64) {
	name := m.Name()
	call(r, name, "engine", "LeaveOneOut", func() {
		r.Checks++
		got := search.LeaveOneOut(m, refs)
		w := eval.Matrix(m, refs, refs)
		want := eval.LeaveOneOutNeighbors(w)
		for i := range want {
			if got.Indices[i] != want[i] {
				r.add(name, fmt.Sprintf("loo/row=%d", i), "engine",
					"pruned neighbor %d, matrix neighbor %d", got.Indices[i], want[i])
				continue
			}
			if want[i] >= 0 && !sameValue(got.Distances[i], w[i][want[i]]) {
				r.add(name, fmt.Sprintf("loo/row=%d", i), "engine",
					"pruned distance %v, matrix distance %v", got.Distances[i], w[i][want[i]])
			}
		}
	})
}

// poisonSets returns copies of an engine query/reference set with NaN,
// +Inf and -Inf planted in some of its series.
func poisonSets(queries, refs [][]float64) (pq, pr [][]float64) {
	pq = append([][]float64(nil), queries...)
	pr = append([][]float64(nil), refs...)
	plant := func(s []float64, at int, v float64) []float64 {
		return poison(append([]float64(nil), s...), at%len(s), v)
	}
	pr[2] = plant(pr[2], 3, math.NaN())
	pr[4] = plant(pr[4], 5, math.Inf(1))
	pr[8] = plant(pr[8], 0, math.Inf(-1))
	pq[0] = plant(pq[0], 7, math.NaN())
	pq[2] = plant(pq[2], 1, math.Inf(1))
	return pq, pr
}

// unpaired is a lower-bounded, early-abandoning measure stripped of its
// other interfaces: without Symmetric, leave-one-out scans every row in
// full, through the 1-NN scan with the row excluded.
type unpaired struct {
	lowerBounded
}

// Name implements measure.Measure.
func (u unpaired) Name() string { return "unpaired(" + u.lowerBounded.Name() + ")" }

type lowerBounded interface {
	measure.LowerBounded
	measure.EarlyAbandoning
}

// Fuzz drives the full harness for one seed: every registry pair against
// every corpus input, the mismatched-length contract, the declared grid
// nestings on the finite corpus, and both search engines on small
// reference sets (one zero-mean, one strictly positive
// for the probability-style measures), each salted with duplicate series
// so exact ties exercise tie-breaking.
func Fuzz(seed int64) *Report {
	r := &Report{}
	corpus := Corpus(seed)
	pairs := Pairs()

	// Shrink the wavefront block so even the short corpus series schedule
	// several blocks per diagonal — otherwise every case would be a single
	// block and the cross-block boundary hand-off would go unexercised.
	restore := elastic.SetWavefrontBlock(4)
	defer restore()

	for _, p := range pairs {
		for _, in := range corpus {
			CheckPair(r, p, in)
		}
		CheckPanicsOnMismatch(r, p.M)
	}

	// Panel route: every corpus series of one length forms a candidate
	// panel — NaN, Inf, extreme, and constant series included — queried
	// both with a well-behaved series and with a non-finite one.
	byLen := map[int][][]float64{}
	for _, in := range corpus {
		byLen[len(in.X)] = append(byLen[len(in.X)], in.X, in.Y)
	}
	for _, p := range pairs {
		pe, ok := p.M.(measure.PanelEvaluator)
		if !ok {
			continue
		}
		for _, n := range Lengths {
			series := byLen[n]
			if len(series) == 0 {
				continue
			}
			CheckPanel(r, pe, series[0], series, fmt.Sprintf("panel/len=%d", n))
			CheckPanel(r, pe, series[len(series)-1], series, fmt.Sprintf("panel-tail-q/len=%d", n))
		}
	}
	for _, g := range eval.Grids() {
		CheckNestedBounds(r, g, corpus)
	}
	queries, refs := EngineSets(seed, false)
	pqueries, prefs := EngineSets(seed, true)
	// The same sets with NaN and ±Inf planted in a few queries and
	// references: the pruned routes (abandoned DPs, skipped cells, lower
	// bounds) must still pick the exhaustive neighbors after sanitization.
	nqueries, nrefs := poisonSets(queries, refs)
	for _, p := range pairs {
		CheckEngines(r, p.M, queries, refs)
		CheckEngines(r, p.M, pqueries, prefs)
		CheckEngines(r, p.M, nqueries, nrefs)
	}
	// Multi-block route: references spanning three of the engine's scan
	// blocks, with ties across block boundaries, so block merges and the
	// lone-query dispatch face exhaustive evaluation for every measure.
	// Leave-one-out runs for DTW with its symmetry hidden, which takes the
	// per-row scan, whose seed must skip the excluded row; the halved
	// scans have no blocks and the small sets above cover them.
	bqueries, brefs := blockSets(seed)
	bpqueries, bprefs := blockPoison(bqueries, brefs)
	for _, p := range pairs {
		checkOneNN(r, p.M, bqueries, brefs)
		checkOneNN(r, p.M, bpqueries, bprefs)
	}
	for _, band := range []int{10, 100} {
		m := unpaired{elastic.DTW{DeltaPercent: band}}
		CheckEngines(r, m, bqueries, brefs)
		CheckEngines(r, m, bpqueries, bprefs)
	}

	// Snapshot route: snapshot-backed search/eval must be bitwise identical
	// to build-inline. The engine sets cover duplicates/ties; the byLen
	// panels re-use the corpus series so NaN, Inf, constant, and extreme
	// values flow through the prepared-state layer too.
	for _, p := range pairs {
		CheckSnapshot(r, p.M, queries, refs, "snapshot/engine")
		CheckSnapshot(r, p.M, pqueries, prefs, "snapshot/engine-pos")
		for _, n := range []int{1, 7, 33} {
			series := byLen[n]
			if len(series) == 0 {
				continue
			}
			if len(series) > 16 {
				series = series[:16]
			}
			nq := len(series)
			if nq > 4 {
				nq = 4
			}
			CheckSnapshot(r, p.M, series[:nq], series, fmt.Sprintf("snapshot/len=%d", n))
		}
	}
	// Grid route once per seed: a thinned DTW grid (lower-bounded family
	// cascade) and a thinned SINK grid (prepared scans), on well-behaved
	// refs and on a NaN/Inf-poisoned train set.
	degenerate := [][]float64{
		refs[0],
		poison(append([]float64(nil), refs[1]...), 2, math.NaN()),
		poison(append([]float64(nil), refs[2]...), 5, math.Inf(1)),
		constant(len(refs[0]), 0),
		refs[3],
		poison(append([]float64(nil), refs[4]...), 0, math.Inf(-1)),
	}
	for _, g := range []eval.Grid{eval.Thin(eval.DTWGrid(), 5), eval.Thin(eval.SINKGrid(), 4)} {
		CheckSnapshotGrid(r, g, refs, "snapshot/grid")
		CheckSnapshotGrid(r, g, degenerate, "snapshot/grid-degenerate")
	}
	return r
}
