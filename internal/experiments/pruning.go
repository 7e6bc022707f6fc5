package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/run"
	"repro/internal/search"
)

// PruningRow is one band of the pruning ablation: exhaustive matrix
// evaluation versus the pruned engine for DTW 1-NN over the archive, with
// the accuracies of both paths (which must agree bit-for-bit) and the
// engine's work counters.
type PruningRow struct {
	Band        int // Sakoe-Chiba band, percent of the series length
	ExactTime   time.Duration
	PrunedTime  time.Duration
	AccExact    float64
	AccPruned   float64
	Identical   bool // every predicted neighbor index matched
	Stats       search.Stats
	PrunedFrac  float64 // fraction of candidate pairs rejected by bounds
	AbandonFrac float64 // full computations relative to candidate pairs
}

// Speedup is the exhaustive-to-pruned wall-clock ratio.
func (r PruningRow) Speedup() float64 {
	if r.PrunedTime <= 0 {
		return 0
	}
	return float64(r.ExactTime) / float64(r.PrunedTime)
}

// PruningAblationCtx quantifies what the UCR-suite machinery buys: for
// each DTW band it runs 1-NN inference over the whole archive twice — once
// through eval.MatrixCtx (exhaustive) and once through search.OneNNCtx
// (LB_Kim + LB_Keogh cascade + early-abandoning DP) — and reports
// wall-clock, work counters, and both accuracies. The Identical flag
// asserts the engine's exactness on this archive; it failing would be a
// bug, not a trade-off. It honors cancellation and reports per-band
// progress; on a non-nil error the rows are partial.
func PruningAblationCtx(ctx context.Context, opts Options, rep run.Reporter) ([]PruningRow, error) {
	opts = opts.Defaults()
	bands := []int{5, 10, 100}
	task := run.NewTask(rep, "pruning", "bands", len(bands))
	rows := make([]PruningRow, 0, len(bands))
	for _, band := range bands {
		m := elastic.DTW{DeltaPercent: band}
		row := PruningRow{Band: band, Identical: true}
		var accExact, accPruned float64
		for _, d := range opts.Archive {
			start := time.Now()
			e, err := eval.MatrixCtx(ctx, m, d.Test, d.Train, nil)
			if err != nil {
				return rows, err
			}
			row.ExactTime += time.Since(start)
			exactNb := eval.Neighbors(e)
			accExact += eval.AccuracyFromNeighbors(exactNb, d.TestLabels, d.TrainLabels)

			start = time.Now()
			res, err := search.OneNNCtx(ctx, m, d.Test, d.Train)
			if err != nil {
				return rows, err
			}
			row.PrunedTime += time.Since(start)
			accPruned += eval.AccuracyFromNeighbors(res.Indices, d.TestLabels, d.TrainLabels)
			row.Stats.Pairs += res.Stats.Pairs
			row.Stats.LBPruned += res.Stats.LBPruned
			row.Stats.FullDist += res.Stats.FullDist
			for i := range exactNb {
				if res.Indices[i] != exactNb[i] {
					row.Identical = false
				}
			}
		}
		n := float64(len(opts.Archive))
		row.AccExact = accExact / n
		row.AccPruned = accPruned / n
		if row.Stats.Pairs > 0 {
			row.PrunedFrac = float64(row.Stats.LBPruned) / float64(row.Stats.Pairs)
			row.AbandonFrac = float64(row.Stats.FullDist) / float64(row.Stats.Pairs)
		}
		rows = append(rows, row)
		task.Step(fmt.Sprintf("band=%d", band))
	}
	task.Done()
	return rows, nil
}

// RenderPruning formats the ablation as a table, one row per band.
func RenderPruning(rows []PruningRow) string {
	var b strings.Builder
	b.WriteString("Pruning ablation: exhaustive matrix vs pruned 1-NN engine (DTW)\n")
	fmt.Fprintf(&b, "%-6s %-12s %-12s %-8s %-9s %-9s %-8s %-8s %s\n",
		"band", "exact", "pruned", "speedup", "accExact", "accPruned", "lbPrune", "fullDP", "identical")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-12v %-12v %-8.2f %-9.4f %-9.4f %-8.2f %-8.2f %v\n",
			r.Band, r.ExactTime.Round(time.Millisecond), r.PrunedTime.Round(time.Millisecond),
			r.Speedup(), r.AccExact, r.AccPruned, r.PrunedFrac, r.AbandonFrac, r.Identical)
	}
	return b.String()
}
