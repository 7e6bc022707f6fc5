package corpus_test

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/search"
)

// The snapshot benchmark suite measures the cold-vs-warm split the
// prepared-state layer buys: "cold" pays per-request preparation (the
// pre-snapshot behavior), "warm" serves it from a snapshot built once
// outside the timed loop. BENCH_snapshot.json records both; the ratio is
// the amortized speedup of repeated querying against a resident corpus.

func benchDataset(train, test int) *dataset.Dataset {
	return dataset.Generate(dataset.Config{
		Name: "Bench", Family: dataset.FamilyECG, Length: 128,
		NumClasses: 4, TrainSize: train, TestSize: test, Seed: 42,
		NoiseSigma: 0.1, ShiftFrac: 0.15, AmpJitter: 0.2,
	})
}

// BenchmarkSnapshotQuery is the cold-vs-warm suite: each iteration is one
// request — a single-query 1-NN search, or a full supervised tuning run.
func BenchmarkSnapshotQuery(b *testing.B) {
	b.Run("onenn-sink/cold", func(b *testing.B) {
		d := benchDataset(128, 8)
		m := kernel.SINK{Gamma: 5}
		query := d.Test[:1]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search.OneNNCtx(context.Background(), m, query, d.Train)
		}
	})
	b.Run("onenn-sink/warm", func(b *testing.B) {
		d := benchDataset(128, 8)
		m := kernel.SINK{Gamma: 5}
		query := d.Test[:1]
		snap := build(b, d.Train, corpus.Options{Measures: []measure.Measure{m}})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search.OneNNSnapshotCtx(context.Background(), m, query, d.Train, snap)
		}
	})
	b.Run("onenn-dtw/warm", func(b *testing.B) {
		d := benchDataset(1024, 8)
		m := elastic.DTW{DeltaPercent: 10}
		query := d.Test[:1]
		snap := build(b, d.Train, corpus.Options{Measures: []measure.Measure{m}})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search.OneNNSnapshotCtx(context.Background(), m, query, d.Train, snap)
		}
	})
	b.Run("tuning-sink/cold", func(b *testing.B) {
		d := benchDataset(48, 4)
		g := eval.Thin(eval.SINKGrid(), 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eval.TuneSupervisedCtx(context.Background(), g, d.Train, d.TrainLabels, nil)
		}
	})
	b.Run("tuning-sink/warm", func(b *testing.B) {
		d := benchDataset(48, 4)
		g := eval.Thin(eval.SINKGrid(), 2)
		// Warm request path: fingerprint the corpus, serve the tuned
		// result from the LRU when resident (every request after the
		// first), falling back to a snapshot-backed sweep on a miss.
		cache := corpus.NewCache(8)
		snap := build(b, d.Train, corpus.Options{Measures: g.Candidates})
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A real request must fingerprint the incoming corpus to form
			// the cache key; keep that cost inside the timed loop.
			k := corpus.Key{FP: corpus.FingerprintOf(d.Train), Measure: g.Name, Band: "tuned/stride=2"}
			cache.GetOrBuildCtx(ctx, k, func(ctx context.Context) (any, error) {
				m, acc, _, err := eval.TuneSupervisedCtx(ctx, g, d.Train, d.TrainLabels, snap)
				if err != nil {
					return nil, err
				}
				return [2]any{m, acc}, nil
			})
		}
	})
}

// BenchmarkSnapshotBuild prices the one-time cost the warm path amortizes.
func BenchmarkSnapshotBuild(b *testing.B) {
	d := benchDataset(128, 8)
	m := kernel.SINK{Gamma: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(b, d.Train, corpus.Options{Measures: []measure.Measure{m}})
	}
}
