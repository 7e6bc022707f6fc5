package experiments

// The multivariate extension study: the paper's evaluation is univariate
// (footnote 1), so this experiment extends the 1-NN accuracy protocol to
// synthetic multivariate panels whose channels share one latent warping —
// the structure that separates the dependent measures (one path over
// vector points) from the independent lifts (one path per channel) — and
// re-runs the comparison with 20% of samples masked out, where only the
// NaN-masked lock-step measures retain signal without imputation.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/lockstep"
	"repro/internal/multivariate"
	"repro/internal/run"
)

// MVRow is one measure's 1-NN accuracy on the clean panel and on the same
// panel with missing samples.
type MVRow struct {
	Measure    string
	Family     string // lockstep | dependent | independent | masked | soft
	CleanAcc   float64
	MissingAcc float64
}

// mvExperimentMeasures returns the fixed measure roster of the study.
func mvExperimentMeasures() []struct {
	family string
	m      multivariate.Measure
} {
	return []struct {
		family string
		m      multivariate.Measure
	}{
		{"lockstep", multivariate.Euclidean{}},
		{"dependent", multivariate.DTWDependent{DeltaPercent: 20}},
		{"dependent", multivariate.ERPDependent{G: 0}},
		{"dependent", multivariate.MSMDependent{C: 0.5}},
		{"independent", multivariate.DTWIndependent{DeltaPercent: 20}},
		{"independent", multivariate.Independent{Base: lockstep.Manhattan()}},
		{"masked", multivariate.MaskedEuclidean(0.3)},
		{"masked", multivariate.MaskedManhattan(0.3)},
		{"soft", multivariate.SoftDTW{Gamma: 0.1, Normalize: true}},
	}
}

// MultivariateExperimentCtx evaluates the roster on two deterministic
// synthetic panels: the coupled-harmonic dataset clean, and bit-identical
// underlying values with 20% of samples replaced by NaN. Accuracies are
// exact functions of the seeds, so the rendered table is golden-pinned.
func MultivariateExperimentCtx(ctx context.Context, _ Options, rep run.Reporter) ([]MVRow, error) {
	measures := mvExperimentMeasures()
	task := run.NewTask(rep, "multivariate", "measures", len(measures))

	base := multivariate.GenConfig{
		Name: "CoupledHarmonics", Length: 48, Channels: 3, NumClasses: 3,
		TrainSize: 18, TestSize: 18, Seed: 7,
		NoiseSigma: 0.25, WarpFrac: 0.08, PhaseShift: true,
	}
	clean := multivariate.Generate(base)
	missingCfg := base
	missingCfg.MissingFrac = 0.2
	missing := multivariate.Generate(missingCfg)

	rows := make([]MVRow, 0, len(measures))
	for _, entry := range measures {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		cleanAcc, err := multivariate.AccuracyCtx(ctx, entry.m,
			clean.Train, clean.TrainLabels, clean.Test, clean.TestLabels)
		if err != nil {
			return rows, err
		}
		missingAcc, err := multivariate.AccuracyCtx(ctx, entry.m,
			missing.Train, missing.TrainLabels, missing.Test, missing.TestLabels)
		if err != nil {
			return rows, err
		}
		rows = append(rows, MVRow{
			Measure: entry.m.Name(), Family: entry.family,
			CleanAcc: cleanAcc, MissingAcc: missingAcc,
		})
		task.Step(entry.m.Name())
	}
	task.Done()
	return rows, nil
}

// RenderMultivariate formats the study: one row per measure, accuracy on
// the clean and 20%-missing panels. Every column is deterministic.
func RenderMultivariate(rows []MVRow) string {
	var b strings.Builder
	b.WriteString("Multivariate 1-NN: dependent vs independent vs masked measures\n")
	b.WriteString("dataset: CoupledHarmonics (48x3, 3 classes, shared latent warp; missing = 20% NaN)\n")
	fmt.Fprintf(&b, "%-28s %-12s %-8s %s\n", "measure", "family", "clean", "missing-20%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-12s %-8.3f %.3f\n", r.Measure, r.Family, r.CleanAcc, r.MissingAcc)
	}
	return b.String()
}
