package index

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/elastic"
	"repro/internal/lockstep"
	"repro/internal/measure"
)

// newVPTree is NewVPTreeCtx under a context that never cancels.
func newVPTree(refs [][]float64, m measure.Measure, seed int64) *VPTree {
	t, err := NewVPTreeCtx(context.Background(), refs, m, seed)
	if err != nil {
		panic(err)
	}
	return t
}

func randSeries(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestPAAKnownValues(t *testing.T) {
	x := []float64{1, 3, 5, 7}
	got := PAA(x, 2)
	if got[0] != 2 || got[1] != 6 {
		t.Fatalf("PAA = %v, want [2 6]", got)
	}
	// segments == len: identity.
	same := PAA(x, 4)
	for i := range x {
		if same[i] != x[i] {
			t.Fatal("full-resolution PAA must be identity")
		}
	}
	// segments > len clamps.
	if len(PAA(x, 10)) != 4 {
		t.Fatal("oversized segments must clamp to length")
	}
}

func TestPAAFractionalSegments(t *testing.T) {
	// 5 points into 2 segments: {0,1} -> seg 0, {2,3,4} -> seg 1
	// (i*segments/m: 0,0,0 -> wait: 0*2/5=0, 1*2/5=0, 2*2/5=0, 3*2/5=1, 4*2/5=1).
	x := []float64{1, 2, 3, 10, 20}
	got := PAA(x, 2)
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-15) > 1e-12 {
		t.Fatalf("PAA = %v, want [2 15]", got)
	}
}

func TestPAAPreservesMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + rng.Intn(100)
		segs := 1 + rng.Intn(m)
		x := randSeries(rng, m)
		p := PAA(x, segs)
		// Weighted mean of PAA coefficients equals series mean when
		// segments divide evenly; otherwise within tolerance of weights.
		if m%segs != 0 {
			return true // only check the exact case
		}
		var xm, pm float64
		for _, v := range x {
			xm += v
		}
		xm /= float64(m)
		for _, v := range p {
			pm += v
		}
		pm /= float64(len(p))
		return math.Abs(xm-pm) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPAAPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { PAA([]float64{1}, 0) },
		func() { PAA(nil, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLBPAAIsLowerBound(t *testing.T) {
	ed := lockstep.Euclidean()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 8 + rng.Intn(60)
		segs := 1 + rng.Intn(m/2+1)
		x := randSeries(rng, m)
		y := randSeries(rng, m)
		lb := LBPAA(PAA(x, segs), PAA(y, segs), m)
		return lb <= ed.Distance(x, y)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	// Regression: with ragged segments (m not divisible by segs) a uniform
	// m/segs weight overestimates the short segments and breaks the bound.
	// This seed produced m=8, segs=5 and a violation of ~0.5.
	if !f(-8449248227039515998) {
		t.Error("LBPAA exceeds the Euclidean distance on ragged segments")
	}
}

func TestLBPAAMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LBPAA([]float64{1}, []float64{1, 2}, 4)
}

func TestEDIndexExactNN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	refs := make([][]float64, 60)
	for i := range refs {
		refs[i] = randSeries(rng, 64)
	}
	ix := NewEDIndex(refs, 8)
	ed := lockstep.Euclidean()
	for trial := 0; trial < 20; trial++ {
		q := randSeries(rng, 64)
		got, gotD, stats := ix.NN(q)
		// Brute force.
		want, wantD := -1, math.Inf(1)
		for i, r := range refs {
			if d := ed.Distance(q, r); d < wantD {
				want, wantD = i, d
			}
		}
		if got != want || math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("index NN (%d, %g) != brute force (%d, %g)", got, gotD, want, wantD)
		}
		if stats.Exact > len(refs) {
			t.Fatalf("exact computations %d exceed candidate count", stats.Exact)
		}
	}
}

func TestEDIndexPrunesOnClusteredData(t *testing.T) {
	// Tight clusters: the lower bound should reject most candidates.
	rng := rand.New(rand.NewSource(2))
	base := randSeries(rng, 64)
	far := make([]float64, 64)
	for i := range far {
		far[i] = base[i] + 50
	}
	refs := make([][]float64, 100)
	for i := range refs {
		src := base
		if i >= 2 {
			src = far
		}
		r := make([]float64, 64)
		for j := range r {
			r[j] = src[j] + 0.01*rng.NormFloat64()
		}
		refs[i] = r
	}
	ix := NewEDIndex(refs, 8)
	q := make([]float64, 64)
	copy(q, base)
	_, _, stats := ix.NN(q)
	if stats.Exact > 20 {
		t.Fatalf("exact computations %d, expected heavy pruning", stats.Exact)
	}
}

func TestEDIndexPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for ragged refs")
			}
		}()
		NewEDIndex([][]float64{{1, 2}, {1}}, 1)
	}()
	ix := NewEDIndex([][]float64{{1, 2, 3, 4}}, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad query length")
		}
	}()
	ix.NN([]float64{1})
}

func TestVPTreeExactForMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	refs := make([][]float64, 50)
	for i := range refs {
		refs[i] = randSeries(rng, 32)
	}
	metrics := []measure.Measure{
		lockstep.Euclidean(),
		lockstep.Manhattan(),
		elastic.MSM{C: 0.5},
		elastic.ERP{G: 0},
	}
	for _, m := range metrics {
		tree := newVPTree(refs, m, 7)
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for trial := 0; trial < 8; trial++ {
			q := randSeries(rng, 32)
			got, gotD, computed := tree.NN(q)
			want, wantD := -1, math.Inf(1)
			for i, r := range refs {
				if d := m.Distance(q, r); d < wantD {
					want, wantD = i, d
				}
			}
			if math.Abs(gotD-wantD) > 1e-9 {
				t.Fatalf("%s: VP-tree NN (%d, %g) != brute (%d, %g)", m.Name(), got, gotD, want, wantD)
			}
			if computed > len(refs) {
				t.Fatalf("%s: computed %d > n", m.Name(), computed)
			}
		}
	}
}

func TestVPTreePrunesOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Three tight, well-separated clusters.
	centers := make([][]float64, 3)
	for c := range centers {
		centers[c] = make([]float64, 32)
		for j := range centers[c] {
			centers[c][j] = float64(c*100) + rng.NormFloat64()
		}
	}
	refs := make([][]float64, 120)
	for i := range refs {
		src := centers[i%3]
		r := make([]float64, 32)
		for j := range r {
			r[j] = src[j] + 0.01*rng.NormFloat64()
		}
		refs[i] = r
	}
	tree := newVPTree(refs, lockstep.Euclidean(), 9)
	q := append([]float64(nil), centers[1]...)
	_, _, computed := tree.NN(q)
	if computed >= len(refs) {
		t.Fatalf("computed %d of %d, expected pruning", computed, len(refs))
	}
	if tree.Size() != 120 {
		t.Fatalf("size = %d", tree.Size())
	}
}

func TestVPTreeSingleElement(t *testing.T) {
	refs := [][]float64{{1, 2, 3}}
	tree := newVPTree(refs, lockstep.Euclidean(), 1)
	best, d, _ := tree.NN([]float64{1, 2, 4})
	if best != 0 || math.Abs(d-1) > 1e-12 {
		t.Fatalf("NN = (%d, %g)", best, d)
	}
}

// TestIndexDegenerateCorpora pins the unified degenerate-input behavior of
// every index constructor: an empty corpus builds a valid empty index whose
// searches return (-1, +Inf) without panicking — the contract NewISAX
// always had — and a one-series corpus returns that series.
func TestIndexDegenerateCorpora(t *testing.T) {
	ed := lockstep.Euclidean()
	q := []float64{1, 2, 3, 4}

	// Empty corpora.
	tree := newVPTree(nil, ed, 1)
	if best, d, computed := tree.NN(q); best != -1 || !math.IsInf(d, 1) || computed != 0 {
		t.Fatalf("empty VPTree NN = (%d, %g, %d), want (-1, +Inf, 0)", best, d, computed)
	}
	if nbs, _ := tree.KNN(q, 3); len(nbs) != 0 {
		t.Fatalf("empty VPTree KNN returned %d neighbors", len(nbs))
	}
	if tree.Size() != 0 {
		t.Fatalf("empty VPTree size = %d", tree.Size())
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("empty VPTree invalid: %v", err)
	}
	eix := NewEDIndex(nil, 4)
	if best, d, _ := eix.NN(q); best != -1 || !math.IsInf(d, 1) {
		t.Fatalf("empty EDIndex NN = (%d, %g), want (-1, +Inf)", best, d)
	}
	isax := NewISAX(4, 2, 4)
	if best, d, verified := isax.NN(q); best != -1 || !math.IsInf(d, 1) || verified != 0 {
		t.Fatalf("empty iSAX NN = (%d, %g, %d), want (-1, +Inf, 0)", best, d, verified)
	}

	// One-series corpora.
	one := [][]float64{{1, 2, 3, 5}}
	tree = newVPTree(one, ed, 1)
	if best, d, _ := tree.NN(q); best != 0 || math.Abs(d-1) > 1e-12 {
		t.Fatalf("len-1 VPTree NN = (%d, %g), want (0, 1)", best, d)
	}
	if nbs, _ := tree.KNN(q, 5); len(nbs) != 1 || nbs[0].Index != 0 {
		t.Fatalf("len-1 VPTree KNN = %v, want one neighbor of index 0", nbs)
	}
	eix = NewEDIndex(one, 2)
	if best, _, _ := eix.NN(q); best != 0 {
		t.Fatalf("len-1 EDIndex NN = %d, want 0", best)
	}
	isax = NewISAX(4, 2, 4)
	isax.Insert(one[0])
	if best, _, _ := isax.NN(q); best != 0 {
		t.Fatalf("len-1 iSAX NN = %d, want 0", best)
	}
}
