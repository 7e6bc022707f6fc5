package profile_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/profile"
)

// tolFFT matches the oracle harness's FFT-route tolerance: the streamed
// dot products and the naive scans differ only by accumulation order.
const tolFFT = 1e-6

func approx(a, b float64) bool {
	if math.IsNaN(a) {
		a = math.Inf(1)
	}
	if math.IsNaN(b) {
		b = math.Inf(1)
	}
	if a == b {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tolFFT*scale
}

// Independent window-level references: explicit two-pass z-normalization
// and direct summation, sharing only the constancy epsilon with the
// engine (both sides must agree on which windows are flat).
func refZNorm(x, y []float64) float64 {
	w := len(x)
	zx, cx := znormWindow(x)
	zy, cy := znormWindow(y)
	if cx || cy {
		return math.Sqrt(2 * float64(w))
	}
	var s float64
	for i := range zx {
		d := zx[i] - zy[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func znormWindow(x []float64) ([]float64, bool) {
	w := float64(len(x))
	var mean, meanSq float64
	for _, v := range x {
		mean += v
		meanSq += v * v
	}
	mean /= w
	meanSq /= w
	var variance float64
	for _, v := range x {
		variance += (v - mean) * (v - mean)
	}
	variance /= w
	if !(variance > 1e-12*(meanSq+1)) { // NaN variance counts as constant-free
		if !math.IsNaN(variance) {
			return nil, true
		}
	}
	out := make([]float64, len(x))
	std := math.Sqrt(variance)
	for i, v := range x {
		out[i] = (v - mean) / std
	}
	return out, false
}

func refEuclidean(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func refPNorm(p float64) func(x, y []float64) float64 {
	return func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += math.Pow(math.Abs(x[i]-y[i]), p)
		}
		return math.Pow(s, 1/p)
	}
}

// naiveJoin is the O(rows*cols*w) sliding-scan reference with the same
// NaN-skipping argmin and exclusion-zone convention as the engine.
func naiveJoin(dist func(x, y []float64) float64, a, b []float64, w, excl int, self bool) ([]float64, []int) {
	rows := len(a) - w + 1
	cols := len(b) - w + 1
	values := make([]float64, rows)
	indices := make([]int, rows)
	for i := 0; i < rows; i++ {
		best, bestJ := math.Inf(1), -1
		for j := 0; j < cols; j++ {
			if self && j >= i-excl && j <= i+excl {
				continue
			}
			if d := dist(a[i:i+w], b[j:j+w]); d < best {
				best, bestJ = d, j
			}
		}
		values[i] = best
		indices[i] = bestJ
	}
	return values, indices
}

func randWalk(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	v := 0.0
	for i := range s {
		v += rng.NormFloat64() * 0.4
		s[i] = v
	}
	return s
}

type refMeasure struct {
	m    profile.Measure
	dist func(x, y []float64) float64
}

func refMeasures() []refMeasure {
	return []refMeasure{
		{profile.ZNormEuclidean(), refZNorm},
		{profile.Euclidean(), refEuclidean},
		{profile.PNorm(1), refPNorm(1)},
		{profile.PNorm(3), refPNorm(3)},
	}
}

func TestSelfJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{64, 129} {
		series := randWalk(rng, n)
		for _, w := range []int{4, 7, 16} {
			excl := w / 2
			if excl < 1 {
				excl = 1
			}
			for _, rm := range refMeasures() {
				res, err := profile.SelfJoin(context.Background(), series, w,
					profile.Options{Measure: rm.m, BlockRows: 7})
				if err != nil {
					t.Fatalf("%s n=%d w=%d: %v", rm.m.Name(), n, w, err)
				}
				want, _ := naiveJoin(rm.dist, series, series, w, excl, true)
				for i := range want {
					if !approx(res.Values[i], want[i]) {
						t.Errorf("%s n=%d w=%d row %d: engine %v naive %v",
							rm.m.Name(), n, w, i, res.Values[i], want[i])
					}
					if j := res.Indices[i]; j >= 0 {
						if j >= i-excl && j <= i+excl {
							t.Errorf("%s n=%d w=%d row %d: neighbor %d inside exclusion zone",
								rm.m.Name(), n, w, i, j)
						}
						if d := rm.dist(series[i:i+w], series[j:j+w]); !approx(res.Values[i], d) {
							t.Errorf("%s n=%d w=%d row %d: claimed pair (i,%d) has distance %v, value %v",
								rm.m.Name(), n, w, i, j, d, res.Values[i])
						}
					} else if !math.IsInf(res.Values[i], 1) {
						t.Errorf("%s n=%d w=%d row %d: index -1 with finite value %v",
							rm.m.Name(), n, w, i, res.Values[i])
					}
				}
			}
		}
	}
}

func TestABJoinMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randWalk(rng, 80)
	b := randWalk(rng, 101)
	for _, w := range []int{5, 12} {
		for _, rm := range refMeasures() {
			res, err := profile.ABJoin(context.Background(), a, b, w,
				profile.Options{Measure: rm.m, BlockRows: 6})
			if err != nil {
				t.Fatalf("%s w=%d: %v", rm.m.Name(), w, err)
			}
			if res.Exclusion != 0 || res.SelfJoin {
				t.Fatalf("%s w=%d: AB-join reported exclusion %d selfJoin %v",
					rm.m.Name(), w, res.Exclusion, res.SelfJoin)
			}
			want, _ := naiveJoin(rm.dist, a, b, w, 0, false)
			for i := range want {
				if !approx(res.Values[i], want[i]) {
					t.Errorf("%s w=%d row %d: engine %v naive %v", rm.m.Name(), w, i, res.Values[i], want[i])
				}
			}
		}
	}
}

// TestABJoinVsSelfJoinDifferential pins the exclusion-zone semantics from
// the outside: joining a series against itself as an AB-join has no
// trivial-match suppression, so every window finds itself at distance ~0,
// while the self-join must look past the zone and find strictly larger
// neighbors on a generic random walk.
func TestABJoinVsSelfJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	series := randWalk(rng, 120)
	const w = 8
	ab, err := profile.ABJoin(context.Background(), series, series, w, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	self, err := profile.SelfJoin(context.Background(), series, w, profile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The FFT self-dot puts corr within ~1e-12 of 1; the sqrt in the MASS
	// identity amplifies that to ~1e-5, so the "zero" bound sits above it.
	const selfMatchTol = 1e-4
	for i := range ab.Values {
		if ab.Values[i] > selfMatchTol {
			t.Errorf("AB-join row %d: self-match distance %v, want ~0", i, ab.Values[i])
		}
		if self.Values[i] <= selfMatchTol {
			t.Errorf("self-join row %d: value %v suspiciously zero despite exclusion zone",
				i, self.Values[i])
		}
	}
}

// TestExclusionZoneBoundary covers the zone geometry for even and odd
// windows on a smooth walk, where without the zone every window's nearest
// neighbor would be its immediate overlap: the engine must agree with the
// naive zoned scan at every row (the clipped zones at both series ends
// included), place every neighbor strictly outside the zone, and the
// unzoned scan must differ somewhere, proving the zone is load-bearing.
func TestExclusionZoneBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	series := randWalk(rng, 60)
	for _, w := range []int{4, 5, 6} { // excl 2, 2, 3: both parities
		excl := w / 2
		if excl < 1 {
			excl = 1
		}
		res, err := profile.SelfJoin(context.Background(), series, w,
			profile.Options{BlockRows: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.Exclusion != excl {
			t.Fatalf("w=%d: exclusion %d, want %d", w, res.Exclusion, excl)
		}
		zoned, _ := naiveJoin(refZNorm, series, series, w, excl, true)
		unzonedDiffers := false
		for i := range zoned {
			if !approx(res.Values[i], zoned[i]) {
				t.Errorf("w=%d row %d: engine %v zoned naive %v", w, i, res.Values[i], zoned[i])
			}
			if j := res.Indices[i]; j >= 0 && j >= i-excl && j <= i+excl {
				t.Errorf("w=%d row %d: neighbor %d within zone radius %d", w, i, j, excl)
			}
			// Unzoned scan on a walk finds the overlapping neighbor.
			best, bestJ := math.Inf(1), -1
			for j := 0; j+w <= len(series); j++ {
				if j == i {
					continue
				}
				if d := refZNorm(series[i:i+w], series[j:j+w]); d < best {
					best, bestJ = d, j
				}
			}
			if bestJ >= 0 && bestJ >= i-excl && bestJ <= i+excl && best < zoned[i]-tolFFT {
				unzonedDiffers = true
			}
		}
		if !unzonedDiffers {
			t.Errorf("w=%d: exclusion zone never changed a row; test series too easy", w)
		}
	}
}

// cancellingMeasure counts the rows it finalizes and cancels the join at
// the k-th.
type cancellingMeasure struct {
	profile.Measure
	rows   *atomic.Int64
	k      int64
	cancel context.CancelFunc
}

func (m cancellingMeasure) DistanceRow(cross, dst []float64, i int, sa, sb *profile.WindowStats) {
	if m.rows.Add(1) == m.k {
		m.cancel()
	}
	m.Measure.DistanceRow(cross, dst, i, sa, sb)
}

// TestCancellationStopsWithinChunk cancels a join from inside its k-th row.
// Blocks are the join's only cancellation point, dispatched as par
// dispatches chunks: the join returns context.Canceled once every worker
// has finished the chunk of blocks it holds (one block on the inline
// path, par's blocks/(workers*8) on the parallel one).
func TestCancellationStopsWithinChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	series := randWalk(rng, 600)
	const w, blockRows, k = 8, 4, 40
	blocks := (len(series) - w + 1 + blockRows - 1) / blockRows
	for _, workers := range []int{1, 4} {
		chunk := 1
		if workers > 1 {
			chunk = max(blocks/(workers*8), 1)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var rows atomic.Int64
		m := cancellingMeasure{Measure: profile.ZNormEuclidean(), rows: &rows, k: k, cancel: cancel}
		_, err := profile.SelfJoin(ctx, series, w, profile.Options{Measure: m, BlockRows: blockRows, Workers: workers})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if limit := int64(k + workers*chunk*blockRows); rows.Load() < k || rows.Load() > limit {
			t.Fatalf("workers=%d: %d rows ran, want %d..%d", workers, rows.Load(), k, limit)
		}
	}
}

func TestWorkerCountBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	series := randWalk(rng, 300)
	const w = 9
	for _, rm := range refMeasures() {
		base, err := profile.SelfJoin(context.Background(), series, w,
			profile.Options{Measure: rm.m, BlockRows: 5, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 4} {
			res, err := profile.SelfJoin(context.Background(), series, w,
				profile.Options{Measure: rm.m, BlockRows: 5, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := range base.Values {
				if math.Float64bits(base.Values[i]) != math.Float64bits(res.Values[i]) ||
					base.Indices[i] != res.Indices[i] {
					t.Fatalf("%s workers=%d row %d: %v/%d vs serial %v/%d", rm.m.Name(), workers, i,
						res.Values[i], res.Indices[i], base.Values[i], base.Indices[i])
				}
			}
		}
	}
}

// TestNonFiniteRepair exercises the poison-repair path at engine level:
// NaN and Inf samples disable FFT seeding and force per-cell repair, and
// the result must still match the naive window-level scan.
func TestNonFiniteRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	series := randWalk(rng, 48)
	series[11] = math.NaN()
	series[30] = math.Inf(1)
	const w = 5
	excl := 2
	for _, rm := range refMeasures() {
		res, err := profile.SelfJoin(context.Background(), series, w,
			profile.Options{Measure: rm.m, BlockRows: 3})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := naiveJoin(rm.dist, series, series, w, excl, true)
		for i := range want {
			if !approx(res.Values[i], want[i]) {
				t.Errorf("%s row %d: engine %v naive %v", rm.m.Name(), i, res.Values[i], want[i])
			}
		}
	}
}

func TestPNorm2MatchesEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	series := randWalk(rng, 100)
	const w = 7
	p2, err := profile.SelfJoin(context.Background(), series, w,
		profile.Options{Measure: profile.PNorm(2)})
	if err != nil {
		t.Fatal(err)
	}
	eu, err := profile.SelfJoin(context.Background(), series, w,
		profile.Options{Measure: profile.Euclidean()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p2.Values {
		if !approx(p2.Values[i], eu.Values[i]) {
			t.Errorf("row %d: pnorm-2 %v euclidean %v", i, p2.Values[i], eu.Values[i])
		}
	}
}

// TestWarmJoinAllocFree pins the warm-path allocation contract for the
// serial engine on both seeding routes (FFT dot products and direct
// p-norm sums).
func TestWarmJoinAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	series := randWalk(rng, 256)
	const w = 16
	for _, m := range []profile.Measure{profile.ZNormEuclidean(), profile.PNorm(3)} {
		eng := profile.New(profile.Options{Measure: m, Workers: 1})
		var res profile.Result
		if err := eng.SelfJoinInto(context.Background(), series, w, &res); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := eng.SelfJoinInto(context.Background(), series, w, &res); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm SelfJoinInto allocated %.0f times, want 0", m.Name(), allocs)
		}
	}
}

func TestEnginePanics(t *testing.T) {
	series := []float64{1, 2, 3, 4, 5}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("window<2", func() {
		profile.SelfJoin(context.Background(), series, 1, profile.Options{})
	})
	mustPanic("window>n", func() {
		profile.SelfJoin(context.Background(), series, 6, profile.Options{})
	})
	mustPanic("ab window>len(b)", func() {
		profile.ABJoin(context.Background(), series, series[:3], 4, profile.Options{})
	})
	mustPanic("pnorm p<=0", func() { profile.PNorm(0) })
}
