package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/norm"
	"repro/internal/run"
	"repro/internal/sliding"
)

// comboThunk is one deferred combo evaluation of a figure's line-up.
type comboThunk func(ctx context.Context) (Combo, error)

// evalCombos runs a figure's combo line-up under a run.Task named after
// the experiment, stepping once per combo; on a non-nil error the combos
// evaluated so far are returned (partial).
func evalCombos(ctx context.Context, rep run.Reporter, experiment string, thunks []comboThunk) ([]Combo, error) {
	task := run.NewTask(rep, experiment, "combos", len(thunks))
	combos := make([]Combo, 0, len(thunks))
	for _, th := range thunks {
		c, err := th(ctx)
		if err != nil {
			return combos, err
		}
		combos = append(combos, c)
		task.Step(c.Measure + "/" + c.Scaling)
	}
	task.Done()
	return combos, nil
}

// plainCombo defers EvaluateComboCtx on a fixed measure/normalizer pair.
func plainCombo(archive []*dataset.Dataset, m measure.Measure, n norm.Normalizer) comboThunk {
	return func(ctx context.Context) (Combo, error) {
		return EvaluateComboCtx(ctx, archive, m, n)
	}
}

// fixedCombo is plainCombo with the Scaling column forced (the "fixed" and
// baseline "-" rows of the figures).
func fixedCombo(archive []*dataset.Dataset, m measure.Measure, n norm.Normalizer, scaling string) comboThunk {
	return func(ctx context.Context) (Combo, error) {
		c, err := EvaluateComboCtx(ctx, archive, m, n)
		c.Scaling = scaling
		return c, err
	}
}

// supervisedThunk defers supervisedComboCtx on a grid.
func supervisedThunk(opts Options, g eval.Grid, n norm.Normalizer) comboThunk {
	return func(ctx context.Context) (Combo, error) {
		return supervisedComboCtx(ctx, opts, g, n)
	}
}

// gridCombo defers EvaluateSupervisedCtx on a thinned grid (LOOCV label).
func gridCombo(opts Options, g eval.Grid) comboThunk {
	return func(ctx context.Context) (Combo, error) {
		return EvaluateSupervisedCtx(ctx, opts.Archive, eval.Thin(g, opts.GridStride), nil)
	}
}

// Figure2Ctx reproduces Figure 2: the Friedman/Nemenyi ranking of the
// lock-step measures that outperform ED under z-score (supervised
// Minkowski, Lorentzian, Manhattan, Avg L1/Linf, DISSIM) together with ED.
// It honors cancellation and reports per-combo progress; on a non-nil
// error the ranking is meaningless.
func Figure2Ctx(ctx context.Context, opts Options, rep run.Reporter) (Ranking, error) {
	opts = opts.Defaults()
	combos, err := evalCombos(ctx, rep, "figure2", []comboThunk{
		supervisedThunk(opts, eval.MinkowskiGrid(), norm.ZScore()),
		plainCombo(opts.Archive, lockstep.Lorentzian(), norm.ZScore()),
		plainCombo(opts.Archive, lockstep.Manhattan(), norm.ZScore()),
		plainCombo(opts.Archive, lockstep.AvgL1Linf(), norm.ZScore()),
		plainCombo(opts.Archive, lockstep.DISSIM(), norm.ZScore()),
		plainCombo(opts.Archive, lockstep.Euclidean(), norm.ZScore()),
	})
	if err != nil {
		return Ranking{}, err
	}
	return BuildRanking("Figure 2: lock-step measures under z-score", combos, opts.FriedmanAlpha), nil
}

// Figure3Ctx reproduces Figure 3: the ranking of the Lorentzian distance
// under different normalizations against ED with z-score. It honors
// cancellation and reports per-combo progress.
func Figure3Ctx(ctx context.Context, opts Options, rep run.Reporter) (Ranking, error) {
	opts = opts.Defaults()
	lor := lockstep.Lorentzian()
	combos, err := evalCombos(ctx, rep, "figure3", []comboThunk{
		plainCombo(opts.Archive, lor, norm.ZScore()),
		plainCombo(opts.Archive, lor, norm.MinMax()),
		plainCombo(opts.Archive, lor, norm.UnitLength()),
		plainCombo(opts.Archive, lor, norm.MeanNorm()),
		plainCombo(opts.Archive, lockstep.Euclidean(), norm.ZScore()),
	})
	if err != nil {
		return Ranking{}, err
	}
	return BuildRanking("Figure 3: Lorentzian under different normalizations vs ED (z-score)", combos, opts.FriedmanAlpha), nil
}

// Figure4Ctx reproduces Figure 4: the ranking of NCCc under different
// normalization methods, with Lorentzian (UnitLength) as the baseline. It
// honors cancellation and reports per-combo progress.
func Figure4Ctx(ctx context.Context, opts Options, rep run.Reporter) (Ranking, error) {
	opts = opts.Defaults()
	sbd := sliding.SBD()
	adaptedThunk := func(ctx context.Context) (Combo, error) {
		adapted, err := EvaluateComboCtx(ctx, opts.Archive, norm.AdaptiveScaling(sbd), nil)
		adapted.Measure = sbd.Name()
		adapted.Scaling = norm.AdaptiveName
		return adapted, err
	}
	combos, err := evalCombos(ctx, rep, "figure4", []comboThunk{
		plainCombo(opts.Archive, sbd, norm.ZScore()),
		plainCombo(opts.Archive, sbd, norm.MeanNorm()),
		plainCombo(opts.Archive, sbd, norm.UnitLength()),
		plainCombo(opts.Archive, sbd, norm.MinMax()),
		adaptedThunk,
		plainCombo(opts.Archive, lockstep.Lorentzian(), norm.UnitLength()),
	})
	if err != nil {
		return Ranking{}, err
	}
	return BuildRanking("Figure 4: NCCc under different normalizations vs Lorentzian (unitlength)", combos, opts.FriedmanAlpha), nil
}

// Figure5Ctx reproduces Figure 5: the ranking of the elastic measures with
// supervised tuning, together with NCCc. It honors cancellation and
// reports per-combo progress.
func Figure5Ctx(ctx context.Context, opts Options, rep run.Reporter) (Ranking, error) {
	opts = opts.Defaults()
	var thunks []comboThunk
	for _, g := range eval.ElasticGrids() {
		thunks = append(thunks, gridCombo(opts, g))
	}
	thunks = append(thunks, fixedCombo(opts.Archive, sliding.SBD(), nil, "-"))
	combos, err := evalCombos(ctx, rep, "figure5", thunks)
	if err != nil {
		return Ranking{}, err
	}
	return BuildRanking("Figure 5: elastic vs sliding measures (supervised)", combos, opts.FriedmanAlpha), nil
}

// Figure6Ctx reproduces Figure 6: the ranking of the elastic measures with
// fixed (unsupervised) parameters, together with NCCc. It honors
// cancellation and reports per-combo progress.
func Figure6Ctx(ctx context.Context, opts Options, rep run.Reporter) (Ranking, error) {
	opts = opts.Defaults()
	var thunks []comboThunk
	for _, m := range unsupervisedElastic() {
		thunks = append(thunks, fixedCombo(opts.Archive, m, nil, "fixed"))
	}
	thunks = append(thunks, fixedCombo(opts.Archive, sliding.SBD(), nil, "-"))
	combos, err := evalCombos(ctx, rep, "figure6", thunks)
	if err != nil {
		return Ranking{}, err
	}
	return BuildRanking("Figure 6: elastic vs sliding measures (unsupervised)", combos, opts.FriedmanAlpha), nil
}

// Figure7Ctx reproduces Figure 7: kernels (KDTW, GAK, SINK) ranked
// together with the strong elastic measures and NCCc under supervised
// tuning. It honors cancellation and reports per-combo progress.
func Figure7Ctx(ctx context.Context, opts Options, rep run.Reporter) (Ranking, error) {
	opts = opts.Defaults()
	var thunks []comboThunk
	for _, g := range []eval.Grid{eval.KDTWGrid(), eval.GAKGrid(), eval.SINKGrid(), eval.MSMGrid(), eval.TWEGrid(), eval.DTWGrid()} {
		thunks = append(thunks, gridCombo(opts, g))
	}
	thunks = append(thunks, fixedCombo(opts.Archive, sliding.SBD(), nil, "-"))
	combos, err := evalCombos(ctx, rep, "figure7", thunks)
	if err != nil {
		return Ranking{}, err
	}
	return BuildRanking("Figure 7: kernel vs elastic vs sliding (supervised)", combos, opts.FriedmanAlpha), nil
}

// Figure8Ctx reproduces Figure 8: the unsupervised counterpart of Figure
// 7. It honors cancellation and reports per-combo progress.
func Figure8Ctx(ctx context.Context, opts Options, rep run.Reporter) (Ranking, error) {
	opts = opts.Defaults()
	ms := unsupervisedKernels()[:3] // KDTW, GAK, SINK
	ms = append(ms, unsupervisedElastic()[:3]...)
	var thunks []comboThunk
	for _, m := range ms {
		thunks = append(thunks, fixedCombo(opts.Archive, m, nil, "fixed"))
	}
	thunks = append(thunks, fixedCombo(opts.Archive, sliding.SBD(), nil, "-"))
	combos, err := evalCombos(ctx, rep, "figure8", thunks)
	if err != nil {
		return Ranking{}, err
	}
	return BuildRanking("Figure 8: kernel vs elastic vs sliding (unsupervised)", combos, opts.FriedmanAlpha), nil
}

// Figure1 reproduces Figure 1 as ASCII art: how each of the 8
// normalization methods transforms a pair of series from an ECG-like
// dataset.
func Figure1() string {
	d := dataset.Generate(dataset.Config{
		Name: "ECGPair", Family: dataset.FamilyECG, Length: 96,
		NumClasses: 2, TrainSize: 2, TestSize: 2, Seed: 5, NoiseSigma: 0.1,
	})
	// Undo the generator's z-normalization visually by offsetting one series.
	x := d.Train[0]
	y := make([]float64, len(d.Train[1]))
	for i, v := range d.Train[1] {
		y[i] = 2*v + 3 // different scale and translation, as in the example
	}
	var b strings.Builder
	b.WriteString("Figure 1: the 8 normalization methods on a pair of ECG-like series\n")
	for _, n := range norm.All() {
		fmt.Fprintf(&b, "\n[%s]\n", n.Name())
		b.WriteString(asciiPlot(n.Normalize(x), n.Normalize(y), 64, 8))
	}
	return b.String()
}

// asciiPlot renders two series in a width-by-height character grid
// ('*' = first series, 'o' = second, '#' = both).
func asciiPlot(x, y []float64, width, height int) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range [][]float64{x, y} {
		for _, v := range s {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	put := func(s []float64, ch byte) {
		for c := 0; c < width; c++ {
			idx := c * (len(s) - 1) / (width - 1)
			r := int((hi - s[idx]) / (hi - lo) * float64(height-1))
			if r < 0 {
				r = 0
			}
			if r >= height {
				r = height - 1
			}
			if grid[r][c] != ' ' && grid[r][c] != ch {
				grid[r][c] = '#'
			} else {
				grid[r][c] = ch
			}
		}
	}
	put(x, '*')
	put(y, 'o')
	var b strings.Builder
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "range [%.3f, %.3f]\n", lo, hi)
	return b.String()
}
