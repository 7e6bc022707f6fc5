package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/elastic"
	"repro/internal/lockstep"
	"repro/internal/measure"
)

// bruteKNN is the reference the tree must match: sanitized distances to
// every reference, sorted by (distance, index), truncated to k.
func bruteKNN(refs [][]float64, m measure.Measure, q []float64, k int) []Neighbor {
	nbs := make([]Neighbor, len(refs))
	for i, r := range refs {
		nbs[i] = Neighbor{Index: i, Dist: measure.Sanitize(m.Distance(q, r))}
	}
	sort.Slice(nbs, func(a, b int) bool {
		if nbs[a].Dist != nbs[b].Dist {
			return nbs[a].Dist < nbs[b].Dist
		}
		return nbs[a].Index < nbs[b].Index
	})
	if k > len(nbs) {
		k = len(nbs)
	}
	return nbs[:k]
}

// propCorpus generates a corpus rigged to produce duplicate series and
// tied distances: every third series is a copy of an earlier one, and
// values are quantized so distinct series frequently tie on distance.
func propCorpus(rng *rand.Rand, n, m int) [][]float64 {
	refs := make([][]float64, n)
	for i := range refs {
		if i >= 2 && i%3 == 0 {
			refs[i] = append([]float64(nil), refs[rng.Intn(i)]...)
			continue
		}
		x := make([]float64, m)
		for j := range x {
			x[j] = math.Round(rng.NormFloat64()*2) / 2 // quantize to halves
		}
		refs[i] = x
	}
	return refs
}

// TestVPTreeKNNMatchesBruteForce checks KNN exactness against a linear
// scan over the metric measures the tree is documented to support,
// including duplicate series and tied distances (both present by
// construction in propCorpus). Distances must match exactly; indices may
// differ only within tied-distance groups, so the comparison is on the
// sorted distance multiset plus the invariant that each returned index's
// distance equals the brute-force distance at the same rank.
func TestVPTreeKNNMatchesBruteForce(t *testing.T) {
	metrics := []measure.Measure{
		lockstep.Euclidean(),
		elastic.MSM{C: 0.5},
		elastic.ERP{G: 0},
		elastic.TWE{Lambda: 1, Nu: 0.0001},
	}
	for _, m := range metrics {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				n := 20 + rng.Intn(40)
				refs := propCorpus(rng, n, 16)
				tree := newVPTree(refs, m, seed)
				if err := tree.Validate(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for trial := 0; trial < 6; trial++ {
					q := refs[rng.Intn(n)]
					if trial%2 == 0 {
						q = randSeries(rng, 16)
					}
					k := 1 + rng.Intn(n+2) // occasionally k > n
					got, computed := tree.KNN(q, k)
					want := bruteKNN(refs, m, q, k)
					if len(got) != len(want) {
						t.Fatalf("seed %d: KNN returned %d neighbors, want %d", seed, len(got), len(want))
					}
					for r := range got {
						if math.Abs(got[r].Dist-want[r].Dist) > 1e-9 {
							t.Fatalf("seed %d k=%d rank %d: dist %g != brute %g",
								seed, k, r, got[r].Dist, want[r].Dist)
						}
					}
					// With the (Dist, Index) total order the result must be
					// exactly the brute-force list, indices included.
					for r := range got {
						if got[r].Index != want[r].Index {
							t.Fatalf("seed %d k=%d rank %d: index %d != brute %d (dist %g)",
								seed, k, r, got[r].Index, want[r].Index, got[r].Dist)
						}
					}
					if computed > n {
						t.Fatalf("seed %d: computed %d > n %d", seed, computed, n)
					}
				}
			}
		})
	}
}

// TestISAXNNMatchesBruteForce checks iSAX exact-NN search against a
// brute-force Euclidean scan on corpora with duplicates and ties.
func TestISAXNNMatchesBruteForce(t *testing.T) {
	ed := lockstep.Euclidean()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 20 + rng.Intn(40)
		refs := propCorpus(rng, n, 16)
		isax := NewISAX(16, 4, 4)
		for _, r := range refs {
			isax.Insert(r)
		}
		if err := isax.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for trial := 0; trial < 8; trial++ {
			q := refs[rng.Intn(n)]
			if trial%2 == 0 {
				q = randSeries(rng, 16)
			}
			_, gotD, _ := isax.NN(q)
			want := bruteKNN(refs, ed, q, 1)
			if math.Abs(gotD-want[0].Dist) > 1e-9 {
				t.Fatalf("seed %d: iSAX NN dist %g != brute %g", seed, gotD, want[0].Dist)
			}
		}
	}
}

// TestVPTreeNaNPoisonedSeries is the regression test for the NN branch
// bug: a NaN vantage distance used to fail both descent conditions, so
// the inside subtree — possibly holding the true neighbor — was silently
// skipped. The search must now treat non-finite distances as
// prune-nothing and still return the exact nearest neighbor, with the
// poisoned series themselves ranking last (+Inf).
func TestVPTreeNaNPoisonedSeries(t *testing.T) {
	ed := lockstep.Euclidean()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		n := 30 + rng.Intn(30)
		refs := propCorpus(rng, n, 16)
		// Poison ~1/4 of the corpus with NaNs so poisoned series regularly
		// become vantage points at every level of the tree.
		for i := range refs {
			if rng.Intn(4) == 0 {
				r := append([]float64(nil), refs[i]...)
				r[rng.Intn(len(r))] = math.NaN()
				refs[i] = r
			}
		}
		tree := newVPTree(refs, ed, seed)
		if err := tree.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for trial := 0; trial < 8; trial++ {
			q := randSeries(rng, 16)
			best, gotD, _ := tree.NN(q)
			want := bruteKNN(refs, ed, q, 1)
			if best != want[0].Index || math.Abs(gotD-want[0].Dist) > 1e-9 {
				t.Fatalf("seed %d: NN (%d, %g) != brute (%d, %g) on NaN-poisoned corpus",
					seed, best, gotD, want[0].Index, want[0].Dist)
			}
			got, _ := tree.KNN(q, 5)
			wantK := bruteKNN(refs, ed, q, 5)
			for r := range got {
				if got[r].Index != wantK[r].Index || math.Abs(got[r].Dist-wantK[r].Dist) > 1e-9 {
					t.Fatalf("seed %d rank %d: KNN (%d, %g) != brute (%d, %g)",
						seed, r, got[r].Index, got[r].Dist, wantK[r].Index, wantK[r].Dist)
				}
			}
		}
		// A NaN query must not hang or panic; every distance is NaN, so all
		// neighbors rank +Inf and the lowest indices win.
		nanQ := make([]float64, 16)
		nanQ[3] = math.NaN()
		got, _ := tree.KNN(nanQ, 3)
		for r, nb := range got {
			if !math.IsInf(nb.Dist, 1) || nb.Index != r {
				t.Fatalf("seed %d: NaN query rank %d = (%d, %g), want (%d, +Inf)",
					seed, r, nb.Index, nb.Dist, r)
			}
		}
	}
}

// TestVPTreeParallelBuildDeterministic pins that the tree structure is
// independent of the goroutine budget: a serial build (small corpus
// forced through the sequential path by context-free construction) and a
// parallel build over the same (refs, seed) must answer identically,
// including exact computed counts, which expose any structural drift.
func TestVPTreeParallelBuildDeterministic(t *testing.T) {
	ed := lockstep.Euclidean()
	rng := rand.New(rand.NewSource(42))
	refs := propCorpus(rng, 600, 16) // large enough to trip both parallel paths
	a := newVPTree(refs, ed, 7)
	b := newVPTree(refs, ed, 7)
	for trial := 0; trial < 12; trial++ {
		q := randSeries(rng, 16)
		na, ca := a.KNN(q, 3)
		nb, cb := b.KNN(q, 3)
		if ca != cb {
			t.Fatalf("trial %d: computed %d vs %d — tree structure differs across builds", trial, ca, cb)
		}
		for r := range na {
			if na[r] != nb[r] {
				t.Fatalf("trial %d rank %d: %v vs %v", trial, r, na[r], nb[r])
			}
		}
	}
}
