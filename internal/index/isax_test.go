package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/lockstep"
)

func buildISAX(rng *rand.Rand, n, m int) (*ISAX, [][]float64) {
	ix := NewISAX(m, 8, 4)
	refs := make([][]float64, n)
	for i := range refs {
		refs[i] = dataset.ZNormalize(randSeries(rng, m))
		ix.Insert(refs[i])
	}
	return ix, refs
}

func TestISAXInsertAndValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix, _ := buildISAX(rng, 200, 64)
	if ix.Size() != 200 {
		t.Fatalf("size = %d", ix.Size())
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestISAXExactNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ix, refs := buildISAX(rng, 150, 48)
	ed := lockstep.Euclidean()
	for trial := 0; trial < 25; trial++ {
		q := dataset.ZNormalize(randSeries(rng, 48))
		got, gotD, verified := ix.NN(q)
		want, wantD := -1, math.Inf(1)
		for i, r := range refs {
			if d := ed.Distance(q, r); d < wantD {
				want, wantD = i, d
			}
		}
		if math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("iSAX NN (%d, %g) != brute (%d, %g)", got, gotD, want, wantD)
		}
		if verified > len(refs) {
			t.Fatalf("verified %d > n", verified)
		}
	}
}

func TestISAXApproxNNReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix, refs := buildISAX(rng, 200, 64)
	// Querying with an indexed series must find something close (usually
	// itself — the leaf containing its own word).
	hits := 0
	for trial := 0; trial < 30; trial++ {
		q := refs[rng.Intn(len(refs))]
		best, dist := ix.ApproxNN(q)
		if best == -1 {
			t.Fatal("no approximate answer")
		}
		if dist < 1e-9 {
			hits++
		}
	}
	if hits < 25 {
		t.Fatalf("approximate search found the exact copy only %d/30 times", hits)
	}
}

func TestISAXPrunesOnClusteredData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := 64
	// Two well-separated z-normalized shapes with small jitter.
	mk := func(freq float64) []float64 {
		s := make([]float64, m)
		for i := range s {
			s[i] = math.Sin(2*math.Pi*freq*float64(i)/float64(m)) + 0.05*rng.NormFloat64()
		}
		return dataset.ZNormalize(s)
	}
	ix := NewISAX(m, 8, 4)
	var refs [][]float64
	for i := 0; i < 200; i++ {
		freq := 2.0
		if i%2 == 1 {
			freq = 7.0
		}
		r := mk(freq)
		refs = append(refs, r)
		ix.Insert(r)
	}
	q := mk(2.0)
	_, _, verified := ix.NN(q)
	if verified >= len(refs) {
		t.Fatalf("verified %d of %d, expected pruning on clustered data", verified, len(refs))
	}
}

func TestISAXEmptyIndex(t *testing.T) {
	ix := NewISAX(32, 8, 4)
	if best, _, _ := ix.NN(make([]float64, 32)); best != -1 {
		t.Fatalf("empty NN = %d", best)
	}
	if best, _ := ix.ApproxNN(make([]float64, 32)); best != -1 {
		t.Fatalf("empty ApproxNN = %d", best)
	}
}

func TestISAXPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewISAX(8, 9, 4) },                            // segments > length
		func() { NewISAX(8, 0, 4) },                            // segments < 1
		func() { NewISAX(8, 4, 0) },                            // capacity < 1
		func() { NewISAX(8, 4, 2).Insert(make([]float64, 7)) }, // bad length
		func() { ix := NewISAX(8, 4, 2); ix.Insert(make([]float64, 8)); ix.NN(make([]float64, 7)) },
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

func TestISAXMinDistIsLowerBound(t *testing.T) {
	// For every node containing a series, MINDIST(query, node) must lower
	// bound ED(query, series).
	rng := rand.New(rand.NewSource(5))
	ix, refs := buildISAX(rng, 80, 32)
	ed := lockstep.Euclidean()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := dataset.ZNormalize(randSeries(r, 32))
		paa := PAA(q, ix.segments)
		// Walk to each leaf and compare against all entries inside.
		ok := true
		var walk func(n *isaxNode)
		walk = func(n *isaxNode) {
			if n.leaf {
				lb := ix.minDistNode(paa, n)
				for _, id := range n.entries {
					if lb > ed.Distance(q, refs[id])+1e-9 {
						ok = false
					}
				}
				return
			}
			walk(n.children[0])
			walk(n.children[1])
		}
		walk(ix.root)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestISAXDeepSplitStillValid(t *testing.T) {
	// Force deep splitting with identical-word series: capacity 1 with
	// many near-identical series exercises the degenerate-split path.
	rng := rand.New(rand.NewSource(6))
	m := 32
	base := dataset.ZNormalize(randSeries(rng, m))
	ix := NewISAX(m, 4, 1)
	for i := 0; i < 20; i++ {
		c := make([]float64, m)
		for j := range c {
			c[j] = base[j] + 1e-6*rng.NormFloat64()
		}
		ix.Insert(dataset.ZNormalize(c))
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
	best, dist, _ := ix.NN(base)
	if best == -1 || dist > 1e-3 {
		t.Fatalf("NN on duplicate-heavy index = (%d, %g)", best, dist)
	}
}

// TestRaggedSegmentBounds: when the length m is not a multiple of the
// segment count, PAA's segments hold floor(m/s) or ceil(m/s) points, and
// SAX MINDIST and iSAX's node bound must weight each segment by its point
// count. A uniform m/s weight overestimates the short segments: MINDIST
// then exceeds ED, and iSAX's exact search prunes the node holding the
// true nearest neighbour.
func TestRaggedSegmentBounds(t *testing.T) {
	ed := lockstep.Euclidean()
	// m = 3, 2 segments: PAA averages points {0, 1} and keeps point 2. The
	// nearest reference differs from q by 1 in point 2 alone; the decoy
	// shares q's word at distance 1.05. With capacity 1 the two land in
	// leaves split on segment 1's sign, so the nearest one's node lies
	// 0.9 from q's coefficient -0.9: its bound is 0.9, but sqrt(1.5)*0.9 =
	// 1.10 under the uniform weight, which pruned it behind the decoy.
	q := []float64{0.5, 0.5, -0.9}
	e := 1.05 / math.Sqrt2
	nearest := []float64{0.5, 0.5, 0.1}
	ix := NewISAX(3, 2, 1)
	ix.Insert([]float64{0.5 + e, 0.5 - e, -0.9})
	ix.Insert(nearest)
	if best, d, _ := ix.NN(q); best != 1 || math.Abs(d-ed.Distance(q, nearest)) > 1e-12 {
		t.Errorf("m=3 segments=2: iSAX NN = (%d, %v), want (1, %v)", best, d, ed.Distance(q, nearest))
	}

	rng := rand.New(rand.NewSource(21))
	for _, shape := range []struct{ m, s int }{{3, 2}, {5, 3}, {7, 4}, {10, 4}} {
		sax := NewSAX(shape.s, 16)
		nnWrong, saxOver := 0, 0
		for trial := 0; trial < 100; trial++ {
			q := dataset.ZNormalize(randSeries(rng, shape.m))
			ix := NewISAX(shape.m, shape.s, 1)
			refs := make([][]float64, 50+rng.Intn(101))
			want := math.Inf(1)
			for i := range refs {
				r := make([]float64, shape.m)
				for j := range r {
					r[j] = q[j] + 0.1*rng.NormFloat64()
				}
				refs[i] = r
				ix.Insert(r)
				want = math.Min(want, ed.Distance(q, r))
			}
			if _, got, _ := ix.NN(q); math.Abs(got-want) > 1e-12 {
				nnWrong++
			}
			// MINDIST against independent series, which differ by whole
			// symbols.
			wq := sax.Symbolize(q)
			for k := 0; k < 10; k++ {
				y := dataset.ZNormalize(randSeries(rng, shape.m))
				if sax.MinDist(wq, sax.Symbolize(y), shape.m) > ed.Distance(q, y) {
					saxOver++
				}
			}
		}
		if nnWrong > 0 || saxOver > 0 {
			t.Errorf("m=%d segments=%d: iSAX NN missed the nearest distance in %d of 100 searches; SAX MINDIST exceeded ED on %d of 1000 pairs",
				shape.m, shape.s, nnWrong, saxOver)
		}
	}
}
