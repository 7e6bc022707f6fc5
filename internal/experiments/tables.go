package experiments

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/norm"
	"repro/internal/run"
	"repro/internal/sliding"
)

// Table2Ctx reproduces Table 2: every lock-step measure under every
// normalization method, compared against ED with z-score (the previous
// state of the art). Only combos with a higher average accuracy than the
// baseline are reported, as in the paper. It honors cancellation and
// reports per-combo progress; on a non-nil error the table is meaningless.
func Table2Ctx(ctx context.Context, opts Options, rep run.Reporter) (Table, error) {
	opts = opts.Defaults()
	total := 1 + len(lockstep.All())*len(norm.All()) + 1
	task := run.NewTask(rep, "table2", "combos", total)
	baseline, err := EvaluateComboCtx(ctx, opts.Archive, lockstep.Euclidean(), norm.ZScore())
	if err != nil {
		return Table{}, err
	}
	task.Step(baseline.Measure + "/" + baseline.Scaling)
	var combos []Combo
	for _, m := range lockstep.All() {
		for _, n := range norm.All() {
			c, err := EvaluateComboCtx(ctx, opts.Archive, m, n)
			if err != nil {
				return Table{}, err
			}
			combos = append(combos, c)
			task.Step(c.Measure + "/" + c.Scaling)
		}
	}
	// The supervised Minkowski row of the paper: tuned per dataset.
	sup, err := supervisedComboCtx(ctx, opts, eval.MinkowskiGrid(), norm.ZScore())
	if err != nil {
		return Table{}, err
	}
	combos = append(combos, sup)
	task.Step(sup.Measure + "/" + sup.Scaling)
	task.Done()
	return BuildTable("Table 2: lock-step measures vs ED (z-score)", combos, baseline, opts.WilcoxonAlpha, false), nil
}

// supervisedComboCtx evaluates a grid with LOOCV tuning under a
// normalization and labels the combo with the normalization name plus the
// protocol. It honors cancellation.
func supervisedComboCtx(ctx context.Context, opts Options, g eval.Grid, n norm.Normalizer) (Combo, error) {
	c, err := EvaluateSupervisedCtx(ctx, opts.Archive, eval.Thin(g, opts.GridStride), n)
	if err != nil {
		return c, err
	}
	c.Scaling = scalingName(n) + "+loocv"
	return c, nil
}

// Table3Ctx reproduces Table 3: the 4 cross-correlation variants under
// every normalization (including the pairwise AdaptiveScaling decorator),
// compared against the Lorentzian distance, the new lock-step state of the
// art established by Table 2. It honors cancellation and reports per-combo
// progress.
func Table3Ctx(ctx context.Context, opts Options, rep run.Reporter) (Table, error) {
	opts = opts.Defaults()
	total := 1 + len(sliding.All())*(len(norm.All())+1)
	task := run.NewTask(rep, "table3", "combos", total)
	baseline, err := EvaluateComboCtx(ctx, opts.Archive, lockstep.Lorentzian(), norm.UnitLength())
	if err != nil {
		return Table{}, err
	}
	task.Step(baseline.Measure + "/" + baseline.Scaling)
	var combos []Combo
	for _, m := range sliding.All() {
		for _, n := range norm.All() {
			c, err := EvaluateComboCtx(ctx, opts.Archive, m, n)
			if err != nil {
				return Table{}, err
			}
			combos = append(combos, c)
			task.Step(c.Measure + "/" + c.Scaling)
		}
		adapted, err := EvaluateComboCtx(ctx, opts.Archive, norm.AdaptiveScaling(m), nil)
		if err != nil {
			return Table{}, err
		}
		adapted.Measure = m.Name()
		adapted.Scaling = norm.AdaptiveName
		combos = append(combos, adapted)
		task.Step(adapted.Measure + "/" + adapted.Scaling)
	}
	task.Done()
	return BuildTable("Table 3: sliding measures vs Lorentzian (unitlength)", combos, baseline, opts.WilcoxonAlpha, false), nil
}

// unsupervisedElastic returns the fixed-parameter elastic rows of Table 5.
func unsupervisedElastic() []measure.Measure {
	return []measure.Measure{
		elastic.MSM{C: 0.5},
		elastic.TWE{Lambda: 1, Nu: 0.0001},
		elastic.DTW{DeltaPercent: 100},
		elastic.DTW{DeltaPercent: 10},
		elastic.EDR{Epsilon: 0.1},
		elastic.Swale{Epsilon: 0.2, P: 5, R: 1},
		elastic.ERP{G: 0},
		elastic.LCSS{DeltaPercent: 5, Epsilon: 0.2},
	}
}

// Table5Ctx reproduces Table 5: the 7 elastic measures against NCCc, under
// both the supervised (LOOCV) and unsupervised (fixed parameters)
// protocols. All data is z-normalized, as the paper fixes from Section 7
// onward. It honors cancellation and reports per-combo progress.
func Table5Ctx(ctx context.Context, opts Options, rep run.Reporter) (Table, error) {
	opts = opts.Defaults()
	supGrids := 0
	for _, g := range eval.ElasticGrids() {
		if g.Name != "erp" {
			supGrids++
		}
	}
	total := 1 + supGrids + len(unsupervisedElastic())
	task := run.NewTask(rep, "table5", "combos", total)
	baseline, err := EvaluateComboCtx(ctx, opts.Archive, sliding.SBD(), nil)
	if err != nil {
		return Table{}, err
	}
	baseline.Scaling = "-"
	task.Step(baseline.Measure)
	var combos []Combo
	for _, g := range eval.ElasticGrids() {
		if g.Name == "erp" {
			continue // parameter-free: only the unsupervised row applies
		}
		c, err := EvaluateSupervisedCtx(ctx, opts.Archive, eval.Thin(g, opts.GridStride), nil)
		if err != nil {
			return Table{}, err
		}
		combos = append(combos, c)
		task.Step(c.Measure + "/" + c.Scaling)
	}
	for _, m := range unsupervisedElastic() {
		c, err := EvaluateComboCtx(ctx, opts.Archive, m, nil)
		if err != nil {
			return Table{}, err
		}
		c.Scaling = "fixed"
		combos = append(combos, c)
		task.Step(c.Measure + "/fixed")
	}
	task.Done()
	return BuildTable("Table 5: elastic measures vs NCCc", combos, baseline, opts.WilcoxonAlpha, true), nil
}

// unsupervisedKernels returns the fixed-parameter kernel rows of Table 6.
func unsupervisedKernels() []measure.Measure {
	return []measure.Measure{
		kernel.KDTW{Gamma: 0.125},
		kernel.GAK{Sigma: 0.1},
		kernel.SINK{Gamma: 5},
		kernel.RBF{Gamma: 2},
	}
}

// Table6Ctx reproduces Table 6: the 4 kernel functions against NCCc under
// both protocols. It honors cancellation and reports per-combo progress.
func Table6Ctx(ctx context.Context, opts Options, rep run.Reporter) (Table, error) {
	opts = opts.Defaults()
	total := 1 + len(eval.KernelGrids()) + len(unsupervisedKernels())
	task := run.NewTask(rep, "table6", "combos", total)
	baseline, err := EvaluateComboCtx(ctx, opts.Archive, sliding.SBD(), nil)
	if err != nil {
		return Table{}, err
	}
	baseline.Scaling = "-"
	task.Step(baseline.Measure)
	var combos []Combo
	for _, g := range eval.KernelGrids() {
		c, err := EvaluateSupervisedCtx(ctx, opts.Archive, eval.Thin(g, opts.GridStride), nil)
		if err != nil {
			return Table{}, err
		}
		combos = append(combos, c)
		task.Step(c.Measure + "/" + c.Scaling)
	}
	for _, m := range unsupervisedKernels() {
		c, err := EvaluateComboCtx(ctx, opts.Archive, m, nil)
		if err != nil {
			return Table{}, err
		}
		c.Scaling = "fixed"
		combos = append(combos, c)
		task.Step(c.Measure + "/fixed")
	}
	task.Done()
	return BuildTable("Table 6: kernel measures vs NCCc", combos, baseline, opts.WilcoxonAlpha, true), nil
}

// EvaluateEmbeddingCtx fits a fresh embedder per dataset (on its training
// split) and evaluates the ED-over-representations measure, the protocol
// of Section 9. It honors cancellation inside both the per-dataset fit and
// the evaluation; on a non-nil error the combo is partial.
func EvaluateEmbeddingCtx(ctx context.Context, archive []*dataset.Dataset, build func(seed int64) embedding.Embedder) (Combo, error) {
	var c Combo
	c.Scaling = "fit/train"
	c.Accs = make([]float64, len(archive))
	for i, d := range archive {
		e := build(int64(i + 1))
		if err := embedding.Fit(ctx, e, d.Train); err != nil {
			return c, err
		}
		m := embedding.Measure{E: e}
		if c.Measure == "" {
			c.Measure = m.Name()
		}
		acc, err := eval.TestAccuracyCtx(ctx, m, d, nil)
		if err != nil {
			return c, err
		}
		c.Accs[i] = acc
	}
	return c, nil
}

// Table7Ctx reproduces Table 7: the 4 embedding measures (fixed-length-100
// representations compared with ED) against NCCc. It honors cancellation
// and reports per-combo progress.
func Table7Ctx(ctx context.Context, opts Options, rep run.Reporter) (Table, error) {
	opts = opts.Defaults()
	builders := []func(seed int64) embedding.Embedder{
		func(seed int64) embedding.Embedder { return &embedding.GRAIL{Gamma: 5, Seed: seed} },
		func(seed int64) embedding.Embedder { return &embedding.RWS{Gamma: 1, DMax: 25, Seed: seed} },
		func(seed int64) embedding.Embedder { return &embedding.SPIRAL{Seed: seed} },
		func(seed int64) embedding.Embedder { return &embedding.SIDL{Lambda: 0.1, R: 0.25, Seed: seed} },
	}
	task := run.NewTask(rep, "table7", "combos", 1+len(builders))
	baseline, err := EvaluateComboCtx(ctx, opts.Archive, sliding.SBD(), nil)
	if err != nil {
		return Table{}, err
	}
	baseline.Scaling = "-"
	task.Step(baseline.Measure)
	var combos []Combo
	for _, b := range builders {
		c, err := EvaluateEmbeddingCtx(ctx, opts.Archive, b)
		if err != nil {
			return Table{}, err
		}
		combos = append(combos, c)
		task.Step(c.Measure)
	}
	task.Done()
	return BuildTable("Table 7: embedding measures vs NCCc", combos, baseline, opts.WilcoxonAlpha, true), nil
}

// Table4 renders the parameter grids (Table 4 is configuration, not an
// experiment): every tunable measure with its candidate count and bounds.
func Table4() string {
	out := "Table 4: parameter grids (see eval package for exact values)\n"
	grids := append(eval.ElasticGrids(), eval.KernelGrids()...)
	grids = append(grids, eval.MinkowskiGrid())
	for _, g := range grids {
		out += fmt.Sprintf("  %-12s %3d candidates (%s .. %s)\n",
			g.Name, len(g.Candidates),
			g.Candidates[0].Name(), g.Candidates[len(g.Candidates)-1].Name())
	}
	return out
}
