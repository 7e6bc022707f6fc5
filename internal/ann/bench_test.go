package ann

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/measure"
)

// The benchmark corpus matches the acceptance scenario: n >= 2000 series,
// where an ANN warm query (transform + tree descent + c exact re-ranks)
// must beat a linear exact scan by >= 5x. DTW with a 10% band is the
// exact measure — the canonical expensive elastic comparison.
const (
	benchN   = 2048
	benchLen = 128
)

var benchState struct {
	once    sync.Once
	refs    [][]float64
	queries [][]float64
	m       measure.Measure
	ix      *Index
	qr      *Querier
}

func benchSetup(b *testing.B) {
	benchState.once.Do(func() {
		d := dataset.Generate(dataset.Config{
			Name: "ann-bench", Family: dataset.FamilyHarmonic,
			Length: benchLen, NumClasses: 8, TrainSize: benchN, TestSize: 32,
			Seed: 1, NoiseSigma: 0.2, ShiftFrac: 0.05,
		})
		benchState.refs = d.Train
		benchState.queries = d.Test
		benchState.m = elastic.DTW{DeltaPercent: 10}
		benchState.ix = build(b, benchState.refs, benchState.m, Config{Seed: 2})
		benchState.qr = benchState.ix.NewQuerier()
	})
	b.ReportAllocs()
}

// BenchmarkANNBuildN256 measures one index build in ingest-churn's shape:
// 256 series of length 128, DTW with a 10% band as the exact measure, and
// a re-rank budget of 64. Each iteration fits GRAIL, embeds and indexes
// the corpus, and prepares the DTW bound contexts, the cost a snapshot
// build pays per new corpus.
func BenchmarkANNBuildN256(b *testing.B) {
	d := dataset.Generate(dataset.Config{
		Name: "ann-build", Family: dataset.FamilyHarmonic,
		Length: benchLen, NumClasses: 8, TrainSize: 256, TestSize: 8,
		Seed: 3, NoiseSigma: 0.2, ShiftFrac: 0.05,
	})
	m := elastic.DTW{DeltaPercent: 10}
	cfg := Config{Seed: 2, Candidates: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(b, d.Train, m, cfg)
	}
}

// BenchmarkANNWarmQueryN2048 measures one warm approximate 1-NN query
// against the prebuilt index (the snapshot steady state: the build cost
// is paid once, outside the loop).
func BenchmarkANNWarmQueryN2048(b *testing.B) {
	benchSetup(b)
	qs := benchState.queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchState.qr.OneNN(qs[i%len(qs)])
	}
}

// BenchmarkANNLinearScanN2048 is the baseline the acceptance criterion
// compares against: an exact linear scan with plain Distance calls, no
// lower bounds, no early abandoning.
func BenchmarkANNLinearScanN2048(b *testing.B) {
	benchSetup(b)
	qs := benchState.queries
	m := benchState.m
	refs := benchState.refs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		best, bestD := -1, 0.0
		for j, r := range refs {
			if d := measure.Sanitize(m.Distance(q, r)); best < 0 || d < bestD {
				best, bestD = j, d
			}
		}
		_ = best
	}
}

// BenchmarkANNPrunedScanN2048 is the repo's own exact engine shape — the
// lower-bound cascade plus early abandoning over all n — isolating how
// much of the ANN speedup survives against a strong exact baseline.
func BenchmarkANNPrunedScanN2048(b *testing.B) {
	benchSetup(b)
	qs := benchState.queries
	ix := benchState.ix
	n := len(benchState.refs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		qr := Querier{ix: ix}
		all := make([]int, n)
		for j := range all {
			all[j] = j
		}
		var stats Stats
		qr.rerank(q, all, 1, &stats)
	}
}
