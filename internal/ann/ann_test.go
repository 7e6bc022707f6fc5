package ann

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
)

func testCorpus(n, length int, seed int64) [][]float64 {
	d := dataset.Generate(dataset.Config{
		Name: "ann-test", Family: dataset.FamilyHarmonic,
		Length: length, NumClasses: 4, TrainSize: n, TestSize: 1,
		Seed: seed, NoiseSigma: 0.2, ShiftFrac: 0.05,
	})
	return d.Train
}

func bruteNN(refs [][]float64, m measure.Measure, q []float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, r := range refs {
		if d := measure.Sanitize(m.Distance(q, r)); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func bruteDists(refs [][]float64, m measure.Measure, q []float64) []float64 {
	ds := make([]float64, len(refs))
	for i, r := range refs {
		ds[i] = measure.Sanitize(m.Distance(q, r))
	}
	sort.Float64s(ds)
	return ds
}

// TestFallbackIsExact pins the lower-bound fallback contract: with the
// default budget covering a small corpus, every query must run the exact
// scan (Fallback set) and match brute force bitwise on distances, for a
// LowerBounded+EarlyAbandoning measure (DTW), a Stateful one (SINK), and
// a plain panel measure (ED).
func TestFallbackIsExact(t *testing.T) {
	refs := testCorpus(24, 64, 1)
	fresh := dataset.Generate(dataset.Config{
		Name: "q", Family: dataset.FamilyHarmonic,
		Length: 64, NumClasses: 4, TrainSize: 4, TestSize: 6,
		Seed: 100, NoiseSigma: 0.2, ShiftFrac: 0.05,
	}).Test
	rng := rand.New(rand.NewSource(2))
	for _, m := range []measure.Measure{
		elastic.DTW{DeltaPercent: 10},
		kernel.SINK{Gamma: 5},
		lockstep.Euclidean(),
	} {
		ix := build(t, refs, m, Config{Seed: 3})
		qr := ix.NewQuerier()
		for trial := 0; trial < 6; trial++ {
			q := refs[rng.Intn(len(refs))]
			if trial%2 == 0 {
				q = fresh[trial]
			}
			best, d, stats := qr.OneNN(q)
			if !stats.Fallback {
				t.Fatalf("%s: budget %d over n=%d did not fall back", m.Name(), ix.Candidates(), len(refs))
			}
			wantI, wantD := bruteNN(refs, m, q)
			if best != wantI || math.Abs(d-wantD) > 1e-9 {
				t.Fatalf("%s: fallback NN (%d, %g) != brute (%d, %g)", m.Name(), best, d, wantI, wantD)
			}
			nbs, _ := qr.KNN(q, 5)
			want := bruteDists(refs, m, q)
			for r, nb := range nbs {
				if math.Abs(nb.Dist-want[r]) > 1e-9 {
					t.Fatalf("%s: fallback KNN rank %d dist %g != brute %g", m.Name(), r, nb.Dist, want[r])
				}
			}
		}
	}
}

// TestApproxRecall checks the real ANN path (tree + re-rank, no
// fallback) keeps high recall@1 when the embedding matches the measure:
// GRAIL approximates SINK, so SINK queries should nearly always land the
// true neighbor inside the candidate set.
func TestApproxRecall(t *testing.T) {
	refs := testCorpus(256, 64, 4)
	m := kernel.SINK{Gamma: 5}
	ix := build(t, refs, m, Config{Candidates: 24, Seed: 5})
	qr := ix.NewQuerier()
	queries := dataset.Generate(dataset.Config{
		Name: "q", Family: dataset.FamilyHarmonic,
		Length: 64, NumClasses: 4, TrainSize: 4, TestSize: 40,
		Seed: 6, NoiseSigma: 0.2, ShiftFrac: 0.05,
	}).Test
	hits := 0
	for _, q := range queries {
		_, d, stats := qr.OneNN(q)
		if stats.Fallback {
			t.Fatal("budget 24 over n=256 must not fall back")
		}
		if stats.EmbedDist == 0 {
			t.Fatal("no tree descent recorded")
		}
		if stats.Exact > 24 {
			t.Fatalf("exact computations %d exceed the candidate budget", stats.Exact+stats.LBPruned)
		}
		_, wantD := bruteNN(refs, m, q)
		if math.Abs(d-wantD) <= 1e-9 {
			hits++
		}
		if d < wantD-1e-9 {
			t.Fatalf("approximate distance %g beats the exact minimum %g", d, wantD)
		}
	}
	if recall := float64(hits) / float64(len(queries)); recall < 0.9 {
		t.Fatalf("recall@1 = %g, want >= 0.9 for SINK under a GRAIL embedding", recall)
	}
}

// TestKNNDistancesAreExact re-verifies every reported neighbor with a
// fresh Distance call: the candidate set is approximate, the distances
// never are.
func TestKNNDistancesAreExact(t *testing.T) {
	refs := testCorpus(128, 64, 7)
	m := elastic.DTW{DeltaPercent: 10}
	ix := build(t, refs, m, Config{Candidates: 16, Seed: 8})
	qr := ix.NewQuerier()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		q := refs[rng.Intn(len(refs))]
		nbs, stats := qr.KNN(q, 4)
		if stats.Fallback {
			t.Fatal("unexpected fallback")
		}
		if len(nbs) != 4 {
			t.Fatalf("got %d neighbors, want 4", len(nbs))
		}
		for r, nb := range nbs {
			if want := measure.Sanitize(m.Distance(q, refs[nb.Index])); math.Abs(nb.Dist-want) > 1e-9 {
				t.Fatalf("rank %d: reported %g, exact %g", r, nb.Dist, want)
			}
			if r > 0 && nbs[r-1].Dist > nb.Dist {
				t.Fatalf("results not sorted: %g before %g", nbs[r-1].Dist, nb.Dist)
			}
		}
	}
}

// build is BuildCtx over a background context with no adopted state.
func build(tb testing.TB, refs [][]float64, m measure.Measure, cfg Config) *Index {
	tb.Helper()
	ix, err := BuildCtx(context.Background(), refs, m, cfg, measure.Prepared{})
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestBuildPreparedAdoptsState checks that an index built from adopted
// snapshot state answers identically to one that built its own.
func TestBuildPreparedAdoptsState(t *testing.T) {
	refs := testCorpus(64, 64, 10)
	m := elastic.DTW{DeltaPercent: 10}
	cfg := Config{Candidates: 12, Seed: 11}
	own := build(t, refs, m, cfg)

	bounds := make([]measure.BoundContext, len(refs))
	for i, r := range refs {
		bounds[i] = m.FillBound(nil, r)
	}
	adopted, err := BuildCtx(context.Background(), refs, m, cfg, measure.Prepared{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	qa, qb := own.NewQuerier(), adopted.NewQuerier()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		q := refs[rng.Intn(len(refs))]
		ba, da, _ := qa.OneNN(q)
		bb, db, _ := qb.OneNN(q)
		if ba != bb || da != db {
			t.Fatalf("adopted state diverges: (%d, %g) vs (%d, %g)", ba, da, bb, db)
		}
	}
}

// TestBuildCancellation checks a cancelled context aborts the build.
func TestBuildCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCtx(ctx, testCorpus(64, 64, 13), lockstep.Euclidean(), Config{}, measure.Prepared{}); err == nil {
		t.Fatal("cancelled build returned nil error")
	}
}

// TestEmptyAndDegenerate covers the empty corpus and k > n.
func TestEmptyAndDegenerate(t *testing.T) {
	ix := build(t, nil, lockstep.Euclidean(), Config{})
	qr := ix.NewQuerier()
	if best, d, _ := qr.OneNN([]float64{1, 2}); best != -1 || !math.IsInf(d, 1) {
		t.Fatalf("empty index NN = (%d, %g)", best, d)
	}
	if nbs, _ := qr.KNN([]float64{1, 2}, 3); len(nbs) != 0 {
		t.Fatalf("empty index KNN returned %d neighbors", len(nbs))
	}
	refs := testCorpus(8, 32, 14)
	ix = build(t, refs, lockstep.Euclidean(), Config{Seed: 15})
	nbs, _ := ix.NewQuerier().KNN(refs[0], 100)
	if len(nbs) != 8 {
		t.Fatalf("k > n returned %d neighbors, want 8", len(nbs))
	}
}

// TestConcurrentQueriers drives one shared Index from many goroutines,
// each with its own Querier — the documented concurrency contract; run
// under -race by make check-race.
func TestConcurrentQueriers(t *testing.T) {
	refs := testCorpus(200, 64, 16)
	m := elastic.DTW{DeltaPercent: 10}
	ix := build(t, refs, m, Config{Candidates: 16, Seed: 17})
	want := make([]float64, 16)
	base := ix.NewQuerier()
	for i := range want {
		_, want[i], _ = base.OneNN(refs[i*3])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qr := ix.NewQuerier()
			for i := range want {
				if _, d, _ := qr.OneNN(refs[i*3]); d != want[i] {
					t.Errorf("concurrent query %d: %g != %g", i, d, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
