package corpus_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ann"
	"repro/internal/corpus"
	"repro/internal/elastic"
	"repro/internal/kernel"
	"repro/internal/measure"
)

// testSeries returns n deterministic pseudo-random series of length m.
func testSeries(seed int64, n, m int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		s := make([]float64, m)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		out[i] = s
	}
	return out
}

// build is corpus.BuildCtx under a context that never cancels.
func build(tb testing.TB, series [][]float64, opts corpus.Options) *corpus.Snapshot {
	tb.Helper()
	s, err := corpus.BuildCtx(context.Background(), series, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestFingerprintDeterministic(t *testing.T) {
	series := testSeries(1, 12, 32)
	a := corpus.FingerprintOf(series)
	b := corpus.FingerprintOf(series)
	if a != b {
		t.Fatalf("fingerprint not deterministic: %v vs %v", a, b)
	}
	if a.Count != 12 || a.Points != 12*32 {
		t.Fatalf("structural fields wrong: %v", a)
	}
}

func TestFingerprintOrderSensitive(t *testing.T) {
	series := testSeries(2, 6, 16)
	a := corpus.FingerprintOf(series)
	swapped := append([][]float64(nil), series...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	b := corpus.FingerprintOf(swapped)
	if a == b {
		t.Fatalf("fingerprint ignores series order: %v", a)
	}
}

// Same-shape corpora with different content must not collide: the cache
// keys derived from fingerprints would otherwise alias across datasets of
// identical dimensions.
func TestFingerprintSameShapeDifferentData(t *testing.T) {
	a := corpus.FingerprintOf(testSeries(3, 10, 64))
	b := corpus.FingerprintOf(testSeries(4, 10, 64))
	if a.Count != b.Count || a.Points != b.Points {
		t.Fatalf("shapes differ: %v vs %v", a, b)
	}
	if a.Hash == b.Hash {
		t.Fatalf("same-shape corpora collided: %v", a)
	}
}

func TestFingerprintDistinguishesBitPatterns(t *testing.T) {
	a := corpus.FingerprintOf([][]float64{{0, 1}})
	b := corpus.FingerprintOf([][]float64{{math.Copysign(0, -1), 1}})
	if a == b {
		t.Fatalf("+0 and -0 fingerprint identically: %v", a)
	}
}

func TestCovers(t *testing.T) {
	series := testSeries(5, 4, 8)
	s := build(t, series, corpus.Options{})
	if !s.Covers(series) {
		t.Fatalf("snapshot does not cover its own series")
	}
	copied := make([][]float64, len(series))
	for i := range series {
		copied[i] = append([]float64(nil), series[i]...)
	}
	if s.Covers(copied) {
		t.Fatalf("snapshot covers equal-value copies (must be same rows)")
	}
	if s.Covers(series[:3]) {
		t.Fatalf("snapshot covers a prefix")
	}
	var nilSnap *corpus.Snapshot
	if nilSnap.Covers(series) {
		t.Fatalf("nil snapshot covers series")
	}
}

func TestBuildSections(t *testing.T) {
	series := testSeries(6, 8, 32)
	s := build(t, series, corpus.Options{Measures: []measure.Measure{
		elastic.DTW{DeltaPercent: 10}, // LowerBounded -> bounds
		kernel.SINK{Gamma: 1},         // Stateful -> prep
		kernel.SINK{Gamma: 2},         // another name, second prep entry
		kernel.GAK{Sigma: 1},          // Stateful -> prep
	}})
	prep, bounds := s.Sections()
	if bounds != 1 {
		t.Fatalf("bounds sections = %d, want 1", bounds)
	}
	if prep != 3 {
		t.Fatalf("prep sections = %d, want 3 (two SINK gammas + GAK)", prep)
	}
	if got := s.BoundContexts(elastic.DTW{DeltaPercent: 10}); len(got) != len(series) {
		t.Fatalf("bound contexts = %d, want %d", len(got), len(series))
	}
	// State is keyed by name: a gamma the build never saw gets nothing.
	if got := s.Prepared(kernel.SINK{Gamma: 7}); got != nil {
		t.Fatalf("prepared state served for a gamma the build never saw")
	}
}

// Snapshot-served prepared states must be interchangeable with inline
// Prepare: PreparedDistance over either source is bitwise identical.
func TestPreparedBitwise(t *testing.T) {
	series := testSeries(7, 6, 64)
	for _, sm := range []measure.Stateful{
		kernel.SINK{Gamma: 5},
		kernel.GAK{Sigma: 1},
	} {
		s := build(t, series, corpus.Options{Measures: []measure.Measure{sm}})
		got := s.Prepared(sm)
		if got == nil {
			t.Fatalf("%s: snapshot holds no prepared states", sm.Name())
		}
		for i := range series {
			for j := range series {
				want := sm.PreparedDistance(sm.Prepare(series[i]), sm.Prepare(series[j]))
				have := sm.PreparedDistance(got[i], got[j])
				if math.Float64bits(want) != math.Float64bits(have) {
					t.Fatalf("%s: d(%d,%d) = %v from snapshot, %v inline", sm.Name(), i, j, have, want)
				}
			}
		}
	}
}

func TestFiniteFlags(t *testing.T) {
	series := [][]float64{
		{1, 2, 3},
		{1, math.NaN(), 3},
		{1, math.Inf(1), 3},
		{},
	}
	s := build(t, series, corpus.Options{})
	want := []bool{true, false, false, true}
	for i, w := range want {
		if s.Finite()[i] != w {
			t.Fatalf("finite[%d] = %v, want %v", i, s.Finite()[i], w)
		}
	}
}

func TestBuildCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := corpus.BuildCtx(ctx, testSeries(12, 64, 64), corpus.Options{
		Measures: []measure.Measure{kernel.SINK{Gamma: 1}},
	})
	if err == nil {
		t.Fatalf("cancelled build returned no error")
	}
}

func TestHitCounters(t *testing.T) {
	series := testSeries(13, 4, 16)
	sink := kernel.SINK{Gamma: 3}
	dtw := elastic.DTW{DeltaPercent: 10}
	s := build(t, series, corpus.Options{Measures: []measure.Measure{sink, dtw}})
	if h := s.Hits(); h.Total() != 0 {
		t.Fatalf("fresh snapshot has hits: %+v", h)
	}
	s.Prepared(sink)
	s.BoundContexts(dtw)
	h := s.Hits()
	if h.Prepared != int64(len(series)) || h.Bounds != int64(len(series)) {
		t.Fatalf("hits = %+v, want %d per section", h, len(series))
	}
}

// TestSnapshotANNIndex covers the approximate-index section: the snapshot
// builds one ann.Index per requested measure, shares the exact-side state
// it already materialized, and ANNIndex answers by measure name with nil
// for measures never requested.
func TestSnapshotANNIndex(t *testing.T) {
	series := testSeries(21, 48, 64)
	dtw := elastic.DTW{DeltaPercent: 10}
	snap := build(t, series, corpus.Options{
		Measures: []measure.Measure{dtw},
		ANN: []corpus.ANNSpec{
			{Measure: dtw, Config: ann.Config{Candidates: 8, Seed: 1}},
			{Measure: dtw, Config: ann.Config{Candidates: 8, Seed: 1}}, // duplicate builds once
		},
	})
	ix := snap.ANNIndex(dtw)
	if ix == nil {
		t.Fatal("ANNIndex returned nil for a requested measure")
	}
	if snap.ANNIndex(kernel.SINK{Gamma: 5}) != nil {
		t.Fatal("ANNIndex returned an index for a measure never requested")
	}
	if ix.Size() != len(series) {
		t.Fatalf("index size %d, want %d", ix.Size(), len(series))
	}
	// The snapshot-built index must answer identically to a standalone
	// build over the same corpus and config.
	own, err := ann.BuildCtx(context.Background(), series, dtw, ann.Config{Candidates: 8, Seed: 1}, ann.ExactState{})
	if err != nil {
		t.Fatal(err)
	}
	qa, qb := ix.NewQuerier(), own.NewQuerier()
	for trial := 0; trial < 6; trial++ {
		q := series[trial*7]
		ba, da, _ := qa.OneNN(q)
		bb, db, _ := qb.OneNN(q)
		if ba != bb || da != db {
			t.Fatalf("snapshot ANN diverges from standalone: (%d, %g) vs (%d, %g)", ba, da, bb, db)
		}
	}
}

// TestSnapshotANNCancelled checks a cancelled context aborts the ANN
// section like every other snapshot section.
func TestSnapshotANNCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := corpus.BuildCtx(ctx, testSeries(22, 32, 32), corpus.Options{
		ANN: []corpus.ANNSpec{{Measure: elastic.DTW{DeltaPercent: 10}}},
	})
	if err == nil {
		t.Fatal("cancelled ANN snapshot build returned nil error")
	}
}
