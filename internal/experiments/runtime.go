package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/run"
	"repro/internal/search"
	"repro/internal/sliding"
)

// RuntimePoint is one point of the Figure 9 scatter: a measure's average
// accuracy and total inference time (computing the test-by-train matrices)
// across the archive.
type RuntimePoint struct {
	Measure   string
	AvgAcc    float64
	Inference time.Duration
	Class     string // asymptotic class: O(m), O(m log m), O(m^2), O(d)
}

// Figure9Ctx reproduces Figure 9: the accuracy-to-runtime comparison of
// the most prominent measures. Runtime covers inference only (evaluation
// on the test sets), as in the paper. With opts.Pruned the inference runs
// through the matrix-free pruned engine; accuracies are identical. It
// honors cancellation and reports per-measure progress; on a non-nil error
// the points are partial. Cancellation is observed inside the timed
// regions too (the engines are ctx-aware), so a cancelled run never blocks
// on a long matrix fill.
func Figure9Ctx(ctx context.Context, opts Options, rep run.Reporter) ([]RuntimePoint, error) {
	opts = opts.Defaults()
	type entry struct {
		m     measure.Measure
		class string
	}
	entries := []entry{
		{lockstep.Euclidean(), "O(m)"},
		{lockstep.Lorentzian(), "O(m)"},
		{sliding.SBD(), "O(m log m)"},
		{kernel.SINK{Gamma: 5}, "O(m log m)"},
		{elastic.DTW{DeltaPercent: 10}, "O(m^2)"},
		{elastic.MSM{C: 0.5}, "O(m^2)"},
		{elastic.TWE{Lambda: 1, Nu: 0.0001}, "O(m^2)"},
		{elastic.ERP{G: 0}, "O(m^2)"},
		{kernel.GAK{Sigma: 0.1}, "O(m^2)"},
		{kernel.KDTW{Gamma: 0.125}, "O(m^2)"},
	}
	task := run.NewTask(rep, "figure9", "measures", len(entries)+1)
	points := make([]RuntimePoint, 0, len(entries)+1)
	for _, e := range entries {
		var correctWeighted float64
		var elapsed time.Duration
		accs := make([]float64, len(opts.Archive))
		for i, d := range opts.Archive {
			var neighbors []int
			start := time.Now()
			if opts.Pruned {
				res, err := search.OneNNCtx(ctx, e.m, d.Test, d.Train)
				if err != nil {
					return points, err
				}
				neighbors = res.Indices
			} else {
				mat, err := eval.MatrixCtx(ctx, e.m, d.Test, d.Train)
				if err != nil {
					return points, err
				}
				neighbors = eval.Neighbors(mat)
			}
			elapsed += time.Since(start)
			accs[i] = eval.AccuracyFromNeighbors(neighbors, d.TestLabels, d.TrainLabels)
			correctWeighted += accs[i]
		}
		points = append(points, RuntimePoint{
			Measure:   e.m.Name(),
			AvgAcc:    correctWeighted / float64(len(opts.Archive)),
			Inference: elapsed,
			Class:     e.class,
		})
		task.Step(e.m.Name())
	}
	// GRAIL: fit on train (excluded from inference time, like the paper's
	// one-off representation construction), then time the O(d) comparisons.
	var grailAcc float64
	var grailTime time.Duration
	for i, d := range opts.Archive {
		g := &embedding.GRAIL{Gamma: 5, Seed: int64(i + 1)}
		if err := g.FitCtx(ctx, d.Train); err != nil {
			return points, err
		}
		sm := measure.Stateful(embedding.Measure{E: g})
		train, err := measure.PrepareCtx(ctx, sm, d.Train)
		if err != nil {
			return points, err
		}
		prepTrain := train.States
		start := time.Now()
		correct := 0
		for j, s := range d.Test {
			ps := sm.Prepare(s)
			best, bestD := -1, 0.0
			for k := range d.Train {
				dist := sm.PreparedDistance(ps, prepTrain[k])
				if best == -1 || dist < bestD {
					best, bestD = k, dist
				}
			}
			if d.TrainLabels[best] == d.TestLabels[j] {
				correct++
			}
		}
		grailTime += time.Since(start)
		grailAcc += float64(correct) / float64(len(d.Test))
	}
	points = append(points, RuntimePoint{
		Measure:   "grail[g=5]",
		AvgAcc:    grailAcc / float64(len(opts.Archive)),
		Inference: grailTime,
		Class:     "O(d)",
	})
	task.Step("grail[g=5]")
	task.Done()
	sort.Slice(points, func(i, j int) bool { return points[i].Inference < points[j].Inference })
	return points, nil
}

// RenderRuntime formats the Figure 9 points as a table sorted by runtime.
func RenderRuntime(points []RuntimePoint) string {
	var b strings.Builder
	b.WriteString("Figure 9: accuracy-to-runtime comparison (inference only)\n")
	fmt.Fprintf(&b, "%-18s %-12s %-9s %s\n", "Measure", "Class", "AvgAcc", "Inference")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s %-12s %-9.4f %v\n", p.Measure, p.Class, p.AvgAcc, p.Inference)
	}
	return b.String()
}

// ConvergencePoint is one point of the Figure 10 curves: the 1-NN error of
// a measure at a given training-set size.
type ConvergencePoint struct {
	Measure   string
	TrainSize int
	Error     float64
}

// Figure10Ctx reproduces Figure 10: 1-NN error rates with increasingly
// larger training sets, showing that ED's error does not always converge
// to the error of more accurate measures at the same speed. A dedicated
// dataset with a large training split is generated (the archive's splits
// are too small to subset meaningfully). It honors cancellation and
// reports per-measure progress; on a non-nil error the points are partial.
func Figure10Ctx(ctx context.Context, opts Options, rep run.Reporter, maxTrain int, sizes []int) ([]ConvergencePoint, error) {
	opts = opts.Defaults()
	if maxTrain <= 0 {
		maxTrain = 256
	}
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64, 128, 256}
	}
	d := dataset.Generate(dataset.Config{
		Name: "Convergence", Family: dataset.FamilyECG, Length: 96,
		NumClasses: 4, TrainSize: maxTrain, TestSize: 128, Seed: 99,
		NoiseSigma: 0.3, ShiftFrac: 0.15, WarpFrac: 0.1, AmpJitter: 0.2,
	})
	ms := []measure.Measure{
		lockstep.Euclidean(),
		lockstep.Lorentzian(),
		sliding.SBD(),
		elastic.DTW{DeltaPercent: 10},
		elastic.MSM{C: 0.5},
	}
	task := run.NewTask(rep, "figure10", "measures", len(ms))
	var out []ConvergencePoint
	for _, m := range ms {
		for _, n := range sizes {
			if n > maxTrain {
				continue
			}
			sub := d.SubsetTrain(n)
			e, err := eval.MatrixCtx(ctx, m, sub.Test, sub.Train)
			if err != nil {
				return out, err
			}
			acc := eval.OneNN(e, sub.TestLabels, sub.TrainLabels)
			out = append(out, ConvergencePoint{Measure: m.Name(), TrainSize: n, Error: 1 - acc})
		}
		task.Step(m.Name())
	}
	task.Done()
	return out, nil
}

// RenderConvergence formats the Figure 10 series as aligned columns, one
// row per training size and one column per measure.
func RenderConvergence(points []ConvergencePoint) string {
	sizes := []int{}
	measures := []string{}
	seenSize := map[int]bool{}
	seenMeasure := map[string]bool{}
	errs := map[string]map[int]float64{}
	for _, p := range points {
		if !seenSize[p.TrainSize] {
			seenSize[p.TrainSize] = true
			sizes = append(sizes, p.TrainSize)
		}
		if !seenMeasure[p.Measure] {
			seenMeasure[p.Measure] = true
			measures = append(measures, p.Measure)
			errs[p.Measure] = map[int]float64{}
		}
		errs[p.Measure][p.TrainSize] = p.Error
	}
	sort.Ints(sizes)
	var b strings.Builder
	b.WriteString("Figure 10: 1-NN error vs training-set size\n")
	fmt.Fprintf(&b, "%-8s", "train")
	for _, m := range measures {
		fmt.Fprintf(&b, " %-14s", m)
	}
	b.WriteByte('\n')
	for _, s := range sizes {
		fmt.Fprintf(&b, "%-8d", s)
		for _, m := range measures {
			fmt.Fprintf(&b, " %-14.4f", errs[m][s])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
