package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/measure"
	"repro/internal/run"
	"repro/internal/search"
)

// TuningRow is one grid family of the tuning-engine ablation: the naive
// per-candidate loop versus the grid engine over the archive, with the
// engine's sweep statistics. The Agree flag asserts that both paths select
// the same candidate with the same leave-one-out accuracy on every
// dataset; it failing would be a bug, not a trade-off.
type TuningRow struct {
	Grid          string
	Candidates    int
	Waves         int // deepest warm-start schedule across the archive
	NaiveTime     time.Duration
	EngineTime    time.Duration
	WarmPruneRate float64 // warm-candidate pairs pruned without a distance
	Repaired      int64   // warm rows re-scanned cold
	Agree         bool
}

// Speedup is the naive-to-engine wall-clock ratio.
func (r TuningRow) Speedup() float64 {
	if r.EngineTime <= 0 {
		return 0
	}
	return float64(r.NaiveTime) / float64(r.EngineTime)
}

// TuningAblationCtx quantifies what the grid engine buys over tuning each
// candidate independently, on four grid families chosen to isolate the
// engine's optimizations: MSM (no declared grid structure — the engine's
// overhead floor), DTW (warm-start chain, envelope arena, and the
// pair-matrix bound), LCSS (pair-matrix pruning for a measure with no
// lower bounds of its own), and SINK (a stateful sweep with no declared
// grid structure: prepared scans in one pooled dispatch). It honors
// cancellation and reports per-grid progress; on a non-nil error the rows
// are partial.
func TuningAblationCtx(ctx context.Context, opts Options, rep run.Reporter) ([]TuningRow, error) {
	opts = opts.Defaults()
	grids := []eval.Grid{eval.MSMGrid(), eval.DTWGrid(), eval.LCSSGrid(), eval.SINKGrid()}
	task := run.NewTask(rep, "tuning", "grids", len(grids))
	rows := make([]TuningRow, 0, len(grids))
	for _, g := range grids {
		g = eval.Thin(g, opts.GridStride)
		row := TuningRow{Grid: g.Name, Candidates: len(g.Candidates), Agree: true}
		var agg search.GridStats
		for _, d := range opts.Archive {
			start := time.Now()
			naiveIdx, naiveAcc := 0, -1.0
			for i, cand := range g.Candidates {
				gr, err := search.LeaveOneOutGridCtx(ctx, []measure.Measure{cand}, d.Train, nil)
				if err != nil {
					return rows, err
				}
				acc := eval.AccuracyFromNeighbors(gr.PerCandidate[0].Indices, d.TrainLabels, d.TrainLabels)
				if acc > naiveAcc {
					naiveAcc, naiveIdx = acc, i
				}
			}
			row.NaiveTime += time.Since(start)

			start = time.Now()
			chosen, acc, st, err := eval.TuneSupervisedDetailedCtx(ctx, g, d.Train, d.TrainLabels)
			if err != nil {
				return rows, err
			}
			row.EngineTime += time.Since(start)

			if chosen.Name() != g.Candidates[naiveIdx].Name() || acc != naiveAcc {
				row.Agree = false
			}
			if st.Waves > row.Waves {
				row.Waves = st.Waves
			}
			row.Repaired += st.Repaired
			agg.WarmSearch.Pairs += st.WarmSearch.Pairs
			agg.WarmSearch.LBPruned += st.WarmSearch.LBPruned
			agg.WarmSearch.PairLB += st.WarmSearch.PairLB
		}
		row.WarmPruneRate = agg.WarmPruneRate()
		rows = append(rows, row)
		task.Step(row.Grid)
	}
	task.Done()
	return rows, nil
}

// RenderTuning formats the ablation as a table, one row per grid family.
// The naive/engine/speedup/warmPrune columns are machine-dependent (the
// prune counters depend on worker scheduling) and are scrubbed in golden
// comparisons; candidate counts, repair counts, and the agreement flag are
// deterministic.
func RenderTuning(rows []TuningRow) string {
	var b strings.Builder
	b.WriteString("Tuning ablation: per-candidate loop vs shared-state grid engine\n")
	fmt.Fprintf(&b, "%-6s %-6s %-12s %-12s %-8s %-10s %-9s %s\n",
		"grid", "cands", "naive", "engine", "speedup", "warmPrune", "repaired", "agree")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-6d %-12v %-12v %-8.2f %-10.2f %-9d %v\n",
			r.Grid, r.Candidates, r.NaiveTime.Round(time.Millisecond),
			r.EngineTime.Round(time.Millisecond), r.Speedup(),
			r.WarmPruneRate, r.Repaired, r.Agree)
	}
	return b.String()
}
