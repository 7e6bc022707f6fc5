package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/elastic"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/run"
)

// HotloopRow is one kernel of the hot-loop engine ablation: the scalar
// baseline against the corresponding fast path (wavefront DP or batched
// panel), with the Agree flag asserting the engine's exactness contract on
// this input — bitwise equality for the full evaluations, the certified
// early-abandoning bound for the cutoff row. Agree failing would be a bug,
// not a trade-off.
type HotloopRow struct {
	Kernel string
	Size   string
	Base   time.Duration
	Fast   time.Duration
	Agree  bool
}

// Speedup is the baseline-to-fast wall-clock ratio.
func (r HotloopRow) Speedup() float64 {
	if r.Fast <= 0 {
		return 0
	}
	return float64(r.Base) / float64(r.Fast)
}

// hotloopReps repeats each timed section so the durations rise above timer
// granularity without making the ablation slow in the golden sweep.
const hotloopReps = 3

// HotloopsAblationCtx quantifies what the two hot-loop engines buy: the
// diagonal-blocked wavefront DP against the two-row scalar DP for the
// elastic recurrences, and the batched lock-step panel path (with and
// without early-abandoning cutoffs) against the per-pair loop. Wall-clock
// columns are machine-dependent and scrubbed in golden comparisons; the
// Agree column is the deterministic exactness assertion. It honors
// cancellation (checked between kernels) and reports per-kernel progress;
// on a non-nil error the rows are partial.
func HotloopsAblationCtx(ctx context.Context, opts Options, rep run.Reporter) ([]HotloopRow, error) {
	opts = opts.Defaults()
	task := run.NewTask(rep, "hotloops", "kernels", 6)
	rows := make([]HotloopRow, 0, 6)
	rng := rand.New(rand.NewSource(19))
	series := func(n int) []float64 {
		s := make([]float64, n)
		v := 0.0
		for i := range s {
			v += rng.NormFloat64() * 0.3
			s[i] = v
		}
		return s
	}

	// Wavefront kernels: length below the auto-route crossover so Distance
	// stays on the scalar path and the wavefront is invoked explicitly;
	// with the default 256-cell blocks a 768-point pair still schedules a
	// 3x3 block grid, so the cross-block hand-off is on the timed path.
	const wn = 768
	wx, wy := series(wn), series(wn)
	type wfKernel struct {
		name string
		m    interface {
			measure.Measure
			DistanceWavefront(x, y []float64) float64
		}
	}
	for _, k := range []wfKernel{
		{"dtw-wavefront", elastic.DTW{DeltaPercent: 10}},
		{"msm-wavefront", elastic.MSM{C: 0.5}},
		{"twe-wavefront", elastic.TWE{Lambda: 1, Nu: 0.0001}},
	} {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		var base, fast float64
		start := time.Now()
		for rep := 0; rep < hotloopReps; rep++ {
			base = k.m.Distance(wx, wy)
		}
		baseDur := time.Since(start)
		start = time.Now()
		for rep := 0; rep < hotloopReps; rep++ {
			fast = k.m.DistanceWavefront(wx, wy)
		}
		fastDur := time.Since(start)
		rows = append(rows, HotloopRow{
			Kernel: k.name, Size: fmt.Sprintf("n=%d", wn),
			Base: baseDur, Fast: fastDur,
			Agree: math.Float64bits(base) == math.Float64bits(fast),
		})
		task.Step(k.name)
	}

	// Panel kernels: one query against a candidate panel, per-pair loop
	// against the fused batched path.
	const pCount, pLen = 64, 128
	q := series(pLen)
	panel := make([][]float64, pCount)
	for i := range panel {
		panel[i] = series(pLen)
	}
	perPair := make([]float64, pCount)
	batched := make([]float64, pCount)
	for _, k := range []struct {
		name string
		pe   measure.PanelEvaluator
	}{
		{"panel-euclidean", lockstep.Euclidean()},
		{"panel-lorentzian", lockstep.Lorentzian()},
	} {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		start := time.Now()
		for rep := 0; rep < hotloopReps; rep++ {
			for i := range panel {
				perPair[i] = k.pe.Distance(q, panel[i])
			}
		}
		baseDur := time.Since(start)
		start = time.Now()
		ok := true
		for rep := 0; rep < hotloopReps; rep++ {
			ok = ok && k.pe.PanelDistances(q, panel, batched)
		}
		fastDur := time.Since(start)
		agree := ok
		for i := range perPair {
			agree = agree && math.Float64bits(perPair[i]) == math.Float64bits(batched[i])
		}
		rows = append(rows, HotloopRow{
			Kernel: k.name, Size: fmt.Sprintf("%dx%d", pCount, pLen),
			Base: baseDur, Fast: fastDur, Agree: agree,
		})
		task.Step(k.name)
	}

	// Early-abandoning panel: the 1-NN cutoff of the panel, so most
	// candidates abandon at a stride check. Agreement here is the UpTo
	// contract: exact below the cutoff, at least the cutoff otherwise.
	if err := ctx.Err(); err != nil {
		return rows, err
	}
	eu := lockstep.Euclidean()
	cutoff := math.Inf(1)
	for i := range panel {
		if d := eu.Distance(q, panel[i]); d < cutoff {
			cutoff = d
		}
	}
	cutoff *= 1.01
	start := time.Now()
	for rep := 0; rep < hotloopReps; rep++ {
		for i := range panel {
			perPair[i] = eu.Distance(q, panel[i])
		}
	}
	baseDur := time.Since(start)
	start = time.Now()
	ok := true
	for rep := 0; rep < hotloopReps; rep++ {
		ok = ok && eu.PanelDistancesUpTo(q, panel, cutoff, batched)
	}
	fastDur := time.Since(start)
	agree := ok
	for i := range perPair {
		if perPair[i] < cutoff {
			agree = agree && math.Float64bits(perPair[i]) == math.Float64bits(batched[i])
		} else {
			agree = agree && batched[i] >= cutoff && batched[i] <= perPair[i]
		}
	}
	rows = append(rows, HotloopRow{
		Kernel: "panel-abandon", Size: fmt.Sprintf("%dx%d", pCount, pLen),
		Base: baseDur, Fast: fastDur, Agree: agree,
	})
	task.Step("panel-abandon")
	task.Done()
	return rows, nil
}

// RenderHotloops formats the ablation as a table, one row per kernel. The
// duration and speedup columns are machine-dependent and scrubbed in
// golden comparisons; kernel, size, and agree are deterministic.
func RenderHotloops(rows []HotloopRow) string {
	var b strings.Builder
	b.WriteString("Hot-loop engines: scalar baselines vs wavefront DP and batched panels\n")
	fmt.Fprintf(&b, "%-16s %-8s %-12s %-12s %-8s %s\n",
		"kernel", "size", "base", "fast", "speedup", "agree")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-8s %-12v %-12v %-8.2f %v\n",
			r.Kernel, r.Size, r.Base.Round(time.Microsecond), r.Fast.Round(time.Microsecond),
			r.Speedup(), r.Agree)
	}
	return b.String()
}
