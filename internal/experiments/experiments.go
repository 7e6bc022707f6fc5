// Package experiments contains one driver per table and figure of the
// paper's evaluation (Tables 2, 3, 5, 6, 7 and Figures 1-10), the shared
// accuracy bookkeeping, and plain-text rendering of comparison tables and
// critical-difference diagrams. Each driver consumes an archive of datasets
// (the synthetic stand-in for the UCR archive by default) and reproduces
// the corresponding artifact's rows or ranking.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/measure"
	"repro/internal/norm"
	"repro/internal/run"
	"repro/internal/stats"
)

// Options configures an experiment run. It lives in the run-core package
// (so registry drivers have a typed signature without an import cycle) and
// is aliased here for the package's long-standing API.
type Options = run.Options

// DefaultArchive generates the reduced synthetic archive used by tests and
// benches: 24 datasets capped at modest sizes, deterministic under seed 1.
func DefaultArchive() []*dataset.Dataset { return run.DefaultArchive() }

// FullArchive generates the full-scale synthetic archive: 128 datasets,
// mirroring the cardinality of the UCR archive the paper evaluates on.
func FullArchive() []*dataset.Dataset { return run.FullArchive() }

// Combo names a (measure, normalization) evaluation unit and stores its
// per-dataset accuracies.
type Combo struct {
	Measure string // display name of the measure
	Scaling string // normalization name, or tuning protocol for Tables 5-7
	Accs    []float64
}

// Mean returns the average accuracy across datasets.
func (c Combo) Mean() float64 {
	if len(c.Accs) == 0 {
		return 0
	}
	var s float64
	for _, a := range c.Accs {
		s += a
	}
	return s / float64(len(c.Accs))
}

// EvaluateComboCtx computes per-dataset 1-NN test accuracies for a fixed
// measure under a normalization (nil = data as stored, i.e. z-normalized).
// It honors cancellation between (and inside) datasets; on a non-nil error
// the combo is partial.
func EvaluateComboCtx(ctx context.Context, archive []*dataset.Dataset, m measure.Measure, n norm.Normalizer) (Combo, error) {
	c := Combo{Measure: m.Name(), Scaling: scalingName(n), Accs: make([]float64, len(archive))}
	for i, d := range archive {
		acc, err := eval.TestAccuracyCtx(ctx, m, d, n)
		if err != nil {
			return c, err
		}
		c.Accs[i] = acc
	}
	return c, nil
}

func scalingName(n norm.Normalizer) string {
	if n == nil {
		return "zscore"
	}
	return n.Name()
}

// EvaluateSupervisedCtx computes per-dataset accuracies with leave-one-out
// parameter tuning on each training split (the LOOCCV rows of Tables 5-6).
// It honors cancellation; on a non-nil error the combo is partial.
func EvaluateSupervisedCtx(ctx context.Context, archive []*dataset.Dataset, g eval.Grid, n norm.Normalizer) (Combo, error) {
	c := Combo{Measure: g.Name, Scaling: "LOOCV", Accs: make([]float64, len(archive))}
	for i, d := range archive {
		acc, _, err := eval.SupervisedAccuracyCtx(ctx, g, d, n)
		if err != nil {
			return c, err
		}
		c.Accs[i] = acc
	}
	return c, nil
}

// Row is one line of a comparison table (the shared shape of Tables 2, 3,
// 5, 6, and 7): a combo judged against the table's baseline.
type Row struct {
	Measure string
	Scaling string
	Better  bool // Wilcoxon-significant win over the baseline
	Worse   bool // Wilcoxon-significant loss (the paper's ⊙ marker)
	AvgAcc  float64
	Wins    int // datasets where the combo beats the baseline (">")
	Ties    int // ("=")
	Losses  int // ("<")
	PValue  float64
}

// Table is a rendered comparison against a baseline combo.
type Table struct {
	Title    string
	Baseline Combo
	Rows     []Row
}

// CompareToBaseline builds a table row for the combo against the baseline
// using the Wilcoxon signed-rank test at the given alpha.
func CompareToBaseline(c, baseline Combo, alpha float64) Row {
	w := stats.Wilcoxon(c.Accs, baseline.Accs)
	return Row{
		Measure: c.Measure,
		Scaling: c.Scaling,
		Better:  w.PValue < alpha && w.WPlus > w.WMinus,
		Worse:   w.PValue < alpha && w.WPlus < w.WMinus,
		AvgAcc:  c.Mean(),
		Wins:    w.Wins,
		Ties:    w.Ties,
		Losses:  w.Losses,
		PValue:  w.PValue,
	}
}

// BuildTable compares every combo to the baseline and, mirroring the
// paper's presentation, keeps only rows whose average accuracy exceeds the
// baseline's unless keepAll is set. Rows are sorted by descending average
// accuracy.
func BuildTable(title string, combos []Combo, baseline Combo, alpha float64, keepAll bool) Table {
	t := Table{Title: title, Baseline: baseline}
	base := baseline.Mean()
	for _, c := range combos {
		if !keepAll && c.Mean() <= base {
			continue
		}
		t.Rows = append(t.Rows, CompareToBaseline(c, baseline, alpha))
	}
	sort.SliceStable(t.Rows, func(i, j int) bool { return t.Rows[i].AvgAcc > t.Rows[j].AvgAcc })
	return t
}

// Render formats the table in the layout of the paper's comparison tables.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-24s %-12s %-7s %-9s %5s %5s %5s %8s\n",
		"Measure", "Scaling", "Better", "AvgAcc", ">", "=", "<", "p-value")
	for _, r := range t.Rows {
		marker := "x"
		if r.Better {
			marker = "yes"
		} else if r.Worse {
			marker = "worse"
		}
		fmt.Fprintf(&b, "%-24s %-12s %-7s %-9.4f %5d %5d %5d %8.4f\n",
			r.Measure, r.Scaling, marker, r.AvgAcc, r.Wins, r.Ties, r.Losses, r.PValue)
	}
	fmt.Fprintf(&b, "%-24s %-12s %-7s %-9.4f %5s %5s %5s\n",
		t.Baseline.Measure, t.Baseline.Scaling, "-", t.Baseline.Mean(), "-", "-", "-")
	return b.String()
}

// Ranking is a Friedman + Nemenyi analysis over a set of combos: the CD
// "figure" counterpart to the tables.
type Ranking struct {
	Title    string
	Names    []string
	Friedman stats.FriedmanResult
}

// BuildRanking runs the Friedman test (with the Nemenyi critical
// difference) over the combos' per-dataset accuracies.
func BuildRanking(title string, combos []Combo, alpha float64) Ranking {
	names := make([]string, len(combos))
	n := len(combos[0].Accs)
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, len(combos))
	}
	for j, c := range combos {
		names[j] = c.Measure + "/" + c.Scaling
		for i, a := range c.Accs {
			scores[i][j] = a
		}
	}
	return Ranking{Title: title, Names: names, Friedman: stats.Friedman(scores, alpha)}
}

// Render formats the ranking as an ASCII critical-difference diagram.
func (r Ranking) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "Friedman chi2=%.3f p=%.4f (Iman-Davenport F=%.3f p=%.4f), significant=%v\n",
		r.Friedman.ChiSq, r.Friedman.PValue, r.Friedman.ImanDavenF, r.Friedman.ImanDavenP, r.Friedman.Significant)
	b.WriteString(stats.CDDiagram(r.Names, r.Friedman.AvgRanks, r.Friedman.CriticalDiff))
	return b.String()
}
