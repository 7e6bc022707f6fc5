package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/profile"
	"repro/internal/run"
)

// ProfileRow is one join of the matrix-profile ablation: a baseline
// formulation (STAMP's one-FFT-per-row scan or the naive per-pair window
// scan) against the STOMP streaming engine on the same planted-pattern
// series, with the recovered motif pair and discord offset as the
// deterministic payload and Agree asserting the two formulations computed
// the same profile.
type ProfileRow struct {
	Measure string
	Join    string
	N, W    int
	Base    time.Duration
	Engine  time.Duration
	MotifA  int
	MotifB  int
	Discord int
	Agree   bool
}

// Speedup is the baseline-to-engine wall-clock ratio.
func (r ProfileRow) Speedup() float64 {
	if r.Engine <= 0 {
		return 0
	}
	return float64(r.Base) / float64(r.Engine)
}

// profileReps repeats each timed section so durations rise above timer
// granularity in the golden sweep.
const profileReps = 3

// plantedProfileSeries builds the experiment's fixed series: a noisy sine
// carrier with an identical 32-point chirp pattern planted at offsets 96
// and 288 (the motif pair every measure should recover) and a noise burst
// over [416, 448) (the discord region).
func plantedProfileSeries() []float64 {
	const n = 512
	rng := rand.New(rand.NewSource(23))
	s := make([]float64, n)
	for i := range s {
		s[i] = math.Sin(2*math.Pi*float64(i)/64) + 0.05*rng.NormFloat64()
	}
	pattern := make([]float64, 32)
	for i := range pattern {
		x := float64(i) / 31
		pattern[i] = 3 * x * x * math.Sin(6*math.Pi*x)
	}
	copy(s[96:], pattern)
	copy(s[288:], pattern)
	for i := 416; i < 448; i++ {
		s[i] = rng.NormFloat64() * 3
	}
	return s
}

// agreeProfileValues compares two profiles on squared distances at 1e-6
// relative: the square is linear in the streamed/FFT cross term, while the
// final square root amplifies rounding arbitrarily near zero (the planted
// exact motif). NaN sanitizes to +Inf on both sides.
func agreeProfileValues(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.IsNaN(x) {
			x = math.Inf(1)
		}
		if math.IsNaN(y) {
			y = math.Inf(1)
		}
		if math.Float64bits(x) == math.Float64bits(y) {
			continue
		}
		if math.IsInf(x, 0) || math.IsInf(y, 0) {
			return false
		}
		xs, ys := x*x, y*y
		if math.Abs(xs-ys) > 1e-6*math.Max(1, math.Max(xs, ys)) {
			return false
		}
	}
	return true
}

// naiveWindowProfile is the naive per-pair baseline: every window pair
// scored by a direct O(w) distance, the same scan the oracle checks the
// engine against.
func naiveWindowProfile(a, b []float64, w int, dist func(x, y []float64) float64, self bool) []float64 {
	rows := len(a) - w + 1
	cols := len(b) - w + 1
	excl := 0
	if self {
		excl = w / 2
		if excl < 1 {
			excl = 1
		}
	}
	vals := make([]float64, rows)
	for i := 0; i < rows; i++ {
		best := math.Inf(1)
		for j := 0; j < cols; j++ {
			if self && j >= i-excl && j <= i+excl {
				continue
			}
			if d := dist(a[i:i+w], b[j:j+w]); d < best {
				best = d
			}
		}
		vals[i] = best
	}
	return vals
}

func euclideanWindow(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func pnorm3Window(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := math.Abs(x[i] - y[i])
		s += d * d * d
	}
	return math.Pow(s, 1.0/3)
}

// ProfileExperimentCtx computes matrix profiles of the planted-pattern
// series under three measures and two join modes, each against an
// independent baseline formulation: STAMP (the engine at one-row blocks
// on one worker, so every row is one FFT scan) for the classic
// z-normalized profile and the AB-join, and the naive per-pair scan for
// the non-normalized measures. Motif and discord columns report the
// recovered structure: the planted pair (96, 288) and an offset inside the
// [416, 448) burst.
func ProfileExperimentCtx(ctx context.Context, opts Options, rep run.Reporter) ([]ProfileRow, error) {
	task := run.NewTask(rep, "profile", "joins", 4)
	series := plantedProfileSeries()
	const n, w = 512, 32
	rows := make([]ProfileRow, 0, 4)

	addSelf := func(name string, m profile.Measure, base func() []float64) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var baseVals []float64
		start := time.Now()
		for rep := 0; rep < profileReps; rep++ {
			baseVals = base()
		}
		baseDur := time.Since(start)
		eng := profile.New(profile.Options{Measure: m})
		var res profile.Result
		start = time.Now()
		for rep := 0; rep < profileReps; rep++ {
			if err := eng.SelfJoinInto(ctx, series, w, &res); err != nil {
				return err
			}
		}
		engDur := time.Since(start)
		ma, mb, _ := res.Motif()
		discord, _ := res.Discord()
		rows = append(rows, ProfileRow{
			Measure: m.Name(), Join: "self", N: n, W: w,
			Base: baseDur, Engine: engDur,
			MotifA: ma, MotifB: mb, Discord: discord,
			Agree: agreeProfileValues(res.Values, baseVals),
		})
		task.Step(m.Name())
		return nil
	}

	stamp := profile.New(profile.Options{BlockRows: 1, Workers: 1})
	var stampRes profile.Result
	if err := addSelf("znorm", profile.ZNormEuclidean(), func() []float64 {
		// A cancelled baseline surfaces as the engine join's error below,
		// which runs under the same ctx.
		_ = stamp.SelfJoinInto(ctx, series, w, &stampRes)
		return stampRes.Values
	}); err != nil {
		return rows, err
	}
	if err := addSelf("euclidean", profile.Euclidean(), func() []float64 {
		return naiveWindowProfile(series, series, w, euclideanWindow, true)
	}); err != nil {
		return rows, err
	}
	if err := addSelf("pnorm", profile.PNorm(3), func() []float64 {
		return naiveWindowProfile(series, series, w, pnorm3Window, true)
	}); err != nil {
		return rows, err
	}

	// AB-join: the motif neighborhood as the query series against the full
	// series, baselined on STAMP (no exclusion zone).
	if err := ctx.Err(); err != nil {
		return rows, err
	}
	query := series[64:192]
	start := time.Now()
	for rep := 0; rep < profileReps; rep++ {
		if err := stamp.ABJoinInto(ctx, query, series, w, &stampRes); err != nil {
			return rows, err
		}
	}
	baseDur := time.Since(start)
	eng := profile.New(profile.Options{})
	var res profile.Result
	start = time.Now()
	for rep := 0; rep < profileReps; rep++ {
		if err := eng.ABJoinInto(ctx, query, series, w, &res); err != nil {
			return rows, err
		}
	}
	engDur := time.Since(start)
	ma, mb, _ := res.Motif()
	discord, _ := res.Discord()
	rows = append(rows, ProfileRow{
		Measure: "znorm-euclidean", Join: "ab", N: n, W: w,
		Base: baseDur, Engine: engDur,
		MotifA: ma, MotifB: mb, Discord: discord,
		Agree: agreeProfileValues(res.Values, stampRes.Values),
	})
	task.Step("ab-join")
	task.Done()
	return rows, nil
}

// RenderProfile formats the study as a table, one row per join. The
// duration and speedup columns are machine-dependent and scrubbed in
// golden comparisons; measure, join, motif, discord, and agree are
// deterministic.
func RenderProfile(rows []ProfileRow) string {
	var b strings.Builder
	b.WriteString("Matrix profile: STAMP/naive baselines vs STOMP streaming engine\n")
	fmt.Fprintf(&b, "%-16s %-8s %-5s %-4s %-12s %-12s %-8s %-11s %-8s %s\n",
		"measure", "join", "n", "w", "base", "engine", "speedup", "motif", "discord", "agree")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-8s %-5d %-4d %-12v %-12v %-8.2f %-11s %-8d %v\n",
			r.Measure, r.Join, r.N, r.W,
			r.Base.Round(time.Microsecond), r.Engine.Round(time.Microsecond),
			r.Speedup(), fmt.Sprintf("(%d,%d)", r.MotifA, r.MotifB), r.Discord, r.Agree)
	}
	return b.String()
}
