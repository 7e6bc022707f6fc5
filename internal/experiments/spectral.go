package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/measure"
	"repro/internal/run"
)

// SpectralRow is one operation of the spectral-engine runtime ablation:
// the naive pre-engine implementation against the batched fast path, with
// the maximum absolute output difference (0 where the engine's contract
// is bitwise, a rounding-scale residual where only the spectrum is shared
// mathematics).
type SpectralRow struct {
	Op      string
	Size    string
	MaxDiff float64
	Naive   time.Duration
	Engine  time.Duration
}

// Speedup is the naive-to-engine wall-clock ratio.
func (r SpectralRow) Speedup() float64 {
	if r.Engine <= 0 {
		return 0
	}
	return float64(r.Naive) / float64(r.Engine)
}

// SpectralRuntimeCtx quantifies what the spectral/linalg engine buys on
// its three layers: the prepared square SINK matrix of eval.MatrixCtx (one
// spectrum per series, one pooled pair kernel) versus the per-pair build
// that re-derives every spectrum (bitwise-identical outputs), the
// Householder+QL eigensolver versus cyclic Jacobi (eigenvalues to
// rounding), and GRAIL's fit (parallel landmark Gram, QL) versus the
// serial prepared-pair fit (embedding geometry to rounding — the eigenbasis is
// free to rotate inside repeated eigenspaces, so the comparison is on
// representation distances). It honors cancellation (checked between rows
// of the naive fills, inside the prepared fills, and between layers — the
// dense eigensolvers themselves run to completion) and reports per-layer
// progress; on a non-nil error the rows are partial.
func SpectralRuntimeCtx(ctx context.Context, opts Options, rep run.Reporter) ([]SpectralRow, error) {
	opts = opts.Defaults()
	task := run.NewTask(rep, "spectral", "layers", 3)
	rows := make([]SpectralRow, 0, 3)

	// Layer 1: the square SINK matrix, 60 series of length 128.
	d := dataset.Generate(dataset.Config{
		Name: "Spectral", Family: dataset.FamilyHarmonic, Length: 128,
		NumClasses: 3, TrainSize: 60, TestSize: 16, Seed: 7,
		NoiseSigma: 0.3, ShiftFrac: 0.15, AmpJitter: 0.2,
	})
	sink := kernel.SINK{Gamma: 5}
	n := len(d.Train)
	naiveGram := linalg.NewMatrix(n, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		for j := 0; j < n; j++ {
			naiveGram.Set(i, j, sink.Distance(d.Train[i], d.Train[j]))
		}
	}
	naiveDur := time.Since(start)
	start = time.Now()
	engineGram, err := eval.MatrixCtx(ctx, sink, d.Train, d.Train)
	if err != nil {
		return rows, err
	}
	engineDur := time.Since(start)
	var maxDiff float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if diff := math.Abs(engineGram[i][j] - naiveGram.At(i, j)); diff > maxDiff {
				maxDiff = diff
			}
		}
	}
	rows = append(rows, SpectralRow{
		Op: "gram-fill", Size: fmt.Sprintf("%dx%d", n, len(d.Train[0])),
		MaxDiff: maxDiff, Naive: naiveDur, Engine: engineDur,
	})
	task.Step("gram-fill")
	if err := ctx.Err(); err != nil {
		return rows, err
	}

	// Layer 2: symmetric eigendecomposition of a PSD Gram-style matrix.
	const en = 120
	rng := rand.New(rand.NewSource(11))
	b := linalg.NewMatrix(en, en/2)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := linalg.SymRankK(b)
	start = time.Now()
	jVals, _ := linalg.EigenSymJacobi(a)
	naiveDur = time.Since(start)
	start = time.Now()
	qVals, _ := linalg.EigenSym(a)
	engineDur = time.Since(start)
	maxDiff = 0
	for i := range qVals {
		if diff := math.Abs(qVals[i] - jVals[i]); diff > maxDiff {
			maxDiff = diff
		}
	}
	rows = append(rows, SpectralRow{
		Op: "eigensym", Size: fmt.Sprintf("n=%d", en),
		MaxDiff: maxDiff, Naive: naiveDur, Engine: engineDur,
	})
	task.Step("eigensym")
	if err := ctx.Err(); err != nil {
		return rows, err
	}

	// Layer 3: the GRAIL fit end to end — serial prepared-pair landmark
	// Gram + Jacobi against Fit's parallel landmark Gram + QL.
	const dim = 24
	start = time.Now()
	naiveTr, err := grailFitSerial(ctx, sink, dim, 5, d.Train)
	if err != nil {
		return rows, err
	}
	naiveDur = time.Since(start)
	g := &embedding.GRAIL{Gamma: sink.Gamma, Dim: dim, Seed: 5}
	start = time.Now()
	if err := g.FitCtx(ctx, d.Train); err != nil {
		return rows, err
	}
	engineDur = time.Since(start)
	maxDiff = 0
	naiveReps := make([][]float64, len(d.Test))
	engineReps := make([][]float64, len(d.Test))
	for i, q := range d.Test {
		naiveReps[i] = naiveTr(q)
		engineReps[i] = g.Transform(q)
	}
	em := embedding.Measure{E: g}
	for i := range d.Test {
		for j := range d.Test {
			dn := em.PreparedDistance(naiveReps[i], naiveReps[j])
			de := em.PreparedDistance(engineReps[i], engineReps[j])
			if diff := math.Abs(dn - de); diff > maxDiff {
				maxDiff = diff
			}
		}
	}
	rows = append(rows, SpectralRow{
		Op: "grail-fit", Size: fmt.Sprintf("%d landmarks", dim),
		MaxDiff: maxDiff, Naive: naiveDur, Engine: engineDur,
	})
	task.Step("grail-fit")
	task.Done()
	return rows, nil
}

// grailFitSerial is the serial GRAIL fit — per-pair prepared Gram build
// and the cyclic Jacobi eigensolver — kept as the ablation baseline. Its
// landmarks are prepared by measure.PrepareCtx, as in GRAIL's own fit.
// It returns the fitted transform.
func grailFitSerial(ctx context.Context, sink kernel.SINK, dim int, seed int64, train [][]float64) (func([]float64) []float64, error) {
	// Same deterministic landmark draw as GRAIL's sampleLandmarks.
	if dim > len(train) {
		dim = len(train)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(train))[:dim]
	landmarks := make([][]float64, dim)
	for i, j := range idx {
		landmarks[i] = train[j]
	}
	d := len(landmarks)
	lp, err := measure.PrepareCtx(ctx, sink, landmarks)
	if err != nil {
		return nil, err
	}
	prep := lp.States
	w := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		w.Set(i, i, 1)
		for j := i + 1; j < d; j++ {
			k := 1 - sink.PreparedDistance(prep[i], prep[j])
			w.Set(i, j, k)
			w.Set(j, i, k)
		}
	}
	vals, vecs := linalg.EigenSymJacobi(w)
	basis := linalg.NewMatrix(d, d)
	for j := 0; j < d; j++ {
		if !(vals[j] > 1e-10) {
			continue
		}
		inv := 1 / math.Sqrt(vals[j])
		for r := 0; r < d; r++ {
			basis.Set(r, j, vecs.At(r, j)*inv)
		}
	}
	return func(x []float64) []float64 {
		px := sink.Prepare(x)
		e := make([]float64, d)
		for i, pl := range prep {
			e[i] = 1 - sink.PreparedDistance(px, pl)
		}
		z := make([]float64, basis.Cols)
		for r, ev := range e {
			if ev == 0 {
				continue
			}
			row := basis.Row(r)
			for c, bv := range row {
				z[c] += ev * bv
			}
		}
		return z
	}, nil
}

// RenderSpectral formats the ablation as a table, one row per engine
// layer. The duration and speedup columns are machine-dependent and
// scrubbed in golden comparisons; op, size, and maxDiff are deterministic.
func RenderSpectral(rows []SpectralRow) string {
	var b strings.Builder
	b.WriteString("Spectral engine: naive paths vs batched Gram/QL fast paths\n")
	fmt.Fprintf(&b, "%-10s %-13s %-9s %-12s %-12s %s\n",
		"op", "size", "maxDiff", "naive", "engine", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-13s %-9.1e %-12v %-12v %.2f\n",
			r.Op, r.Size, r.MaxDiff, r.Naive.Round(time.Millisecond),
			r.Engine.Round(time.Millisecond), r.Speedup())
	}
	return b.String()
}
