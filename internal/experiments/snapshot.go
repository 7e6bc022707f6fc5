package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/corpus"
	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/run"
	"repro/internal/search"
)

// SnapshotRow is one workload of the snapshot ablation: the same request
// stream served cold (per-request preparation, the pre-snapshot behavior)
// and warm (state from a build-once corpus snapshot, tuned results from
// the snapshot LRU). The Agree flag asserts both paths returned bitwise
// identical results on every request; it failing would be a bug, not a
// trade-off.
type SnapshotRow struct {
	Workload  string
	Requests  int
	ColdTime  time.Duration // sum of per-request inline runs
	WarmTime  time.Duration // snapshot/cache build plus per-request warm runs
	PrepHits  int64         // per-series states served by snapshots
	CacheHits int64         // tuned results served by the LRU
	Agree     bool
}

// Speedup is the cold-to-warm wall-clock ratio: the amortized gain of
// repeated querying against a resident corpus, one-time build included.
func (r SnapshotRow) Speedup() float64 {
	if r.WarmTime <= 0 {
		return 0
	}
	return float64(r.ColdTime) / float64(r.WarmTime)
}

// snapshotRequests is the number of times each workload re-queries the
// same corpus; the warm path pays preparation once across all of them.
const snapshotRequests = 4

// SnapshotAblationCtx measures what the prepared-state layer buys on three
// workload shapes: repeated 1-NN under SINK (preparation-heavy — one FFT
// spectrum per series per request goes away), repeated 1-NN under DTW
// (envelope fills go away, but the DP dominates, bounding the gain), and
// repeated supervised DTW tuning (the whole sweep collapses to a
// fingerprint lookup in the snapshot LRU after the first request). It
// honors cancellation and reports per-workload progress; on a non-nil
// error the rows are partial.
func SnapshotAblationCtx(ctx context.Context, opts Options, rep run.Reporter) ([]SnapshotRow, error) {
	opts = opts.Defaults()
	workloads := []string{"1nn-sink", "1nn-dtw", "tune-dtw"}
	task := run.NewTask(rep, "snapshot", "workloads", len(workloads))
	rows := make([]SnapshotRow, 0, len(workloads))
	for _, w := range workloads {
		var (
			row SnapshotRow
			err error
		)
		switch w {
		case "1nn-sink":
			row, err = snapshotOneNN(ctx, opts, w, kernel.SINK{Gamma: 5})
		case "1nn-dtw":
			row, err = snapshotOneNN(ctx, opts, w, elastic.DTW{DeltaPercent: 10})
		case "tune-dtw":
			row, err = snapshotTuning(ctx, opts, w, eval.Thin(eval.DTWGrid(), opts.GridStride))
		}
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		task.Step(w)
	}
	task.Done()
	return rows, nil
}

// snapshotOneNN serves snapshotRequests 1-NN requests per dataset, cold
// and warm, and compares the two result streams bitwise.
func snapshotOneNN(ctx context.Context, opts Options, name string, m measure.Measure) (SnapshotRow, error) {
	row := SnapshotRow{Workload: name, Agree: true}
	for _, d := range opts.Archive {
		cold := make([]search.Result, snapshotRequests)
		start := time.Now()
		for r := 0; r < snapshotRequests; r++ {
			res, err := search.OneNNCtx(ctx, m, d.Test, d.Train)
			if err != nil {
				return row, err
			}
			cold[r] = res
		}
		row.ColdTime += time.Since(start)

		start = time.Now()
		snap, err := corpus.BuildCtx(ctx, d.Train, corpus.Options{Measures: []measure.Measure{m}})
		if err != nil {
			return row, err
		}
		for r := 0; r < snapshotRequests; r++ {
			res, err := search.OneNNSnapshotCtx(ctx, m, d.Test, d.Train, snap)
			if err != nil {
				return row, err
			}
			if !sameResult(res, cold[r]) {
				row.Agree = false
			}
		}
		row.WarmTime += time.Since(start)
		row.PrepHits += snap.Hits().Total()
		row.Requests += snapshotRequests
	}
	return row, nil
}

// snapshotTuning serves snapshotRequests supervised tuning requests per
// dataset: cold re-runs the full sweep each time; warm fingerprints the
// corpus and serves the tuned result from the LRU, falling back to one
// snapshot-backed sweep on the first miss.
func snapshotTuning(ctx context.Context, opts Options, name string, g eval.Grid) (SnapshotRow, error) {
	row := SnapshotRow{Workload: name, Agree: true}
	type tuned struct {
		name string
		acc  float64
	}
	cache := corpus.NewCache(2 * len(opts.Archive))
	for _, d := range opts.Archive {
		var coldRes tuned
		start := time.Now()
		for r := 0; r < snapshotRequests; r++ {
			m, acc, _, err := eval.TuneSupervisedCtx(ctx, g, d.Train, d.TrainLabels, nil)
			if err != nil {
				return row, err
			}
			coldRes = tuned{m.Name(), acc}
		}
		row.ColdTime += time.Since(start)

		start = time.Now()
		snap, err := corpus.BuildCtx(ctx, d.Train, corpus.Options{Measures: g.Candidates})
		if err != nil {
			return row, err
		}
		key := corpus.Key{FP: snap.Fingerprint(), Measure: g.Name, Band: fmt.Sprintf("tuned/stride=%d", opts.GridStride)}
		for r := 0; r < snapshotRequests; r++ {
			v, err := cache.GetOrBuildCtx(ctx, key, func(ctx context.Context) (any, error) {
				m, acc, _, err := eval.TuneSupervisedCtx(ctx, g, d.Train, d.TrainLabels, snap)
				if err != nil {
					return nil, err
				}
				return tuned{m.Name(), acc}, nil
			})
			if err != nil {
				return row, err
			}
			got := v.(tuned)
			if got.name != coldRes.name || math.Float64bits(got.acc) != math.Float64bits(coldRes.acc) {
				row.Agree = false
			}
		}
		row.WarmTime += time.Since(start)
		row.PrepHits += snap.Hits().Total()
		row.Requests += snapshotRequests
	}
	row.CacheHits = cache.Stats().Hits
	return row, nil
}

// sameResult compares two search results bitwise: same neighbors, same
// distance bit patterns (so NaN payloads and signed zeros count too).
func sameResult(a, b search.Result) bool {
	if len(a.Indices) != len(b.Indices) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
		if math.Float64bits(a.Distances[i]) != math.Float64bits(b.Distances[i]) {
			return false
		}
	}
	return true
}

// RenderSnapshot formats the ablation as a table, one row per workload.
// The cold/warm/speedup columns are machine-dependent and are scrubbed in
// golden comparisons; request counts, snapshot hit counts, cache hit
// counts, and the agreement flag are deterministic.
func RenderSnapshot(rows []SnapshotRow) string {
	var b strings.Builder
	b.WriteString("Snapshot ablation: build-once prepared state vs per-request preparation\n")
	fmt.Fprintf(&b, "%-10s %-5s %-12s %-12s %-8s %-9s %-10s %s\n",
		"workload", "reqs", "cold", "warm", "speedup", "prepHits", "cacheHits", "agree")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-5d %-12v %-12v %-8.2f %-9d %-10d %v\n",
			r.Workload, r.Requests, r.ColdTime.Round(time.Millisecond),
			r.WarmTime.Round(time.Millisecond), r.Speedup(),
			r.PrepHits, r.CacheHits, r.Agree)
	}
	return b.String()
}
