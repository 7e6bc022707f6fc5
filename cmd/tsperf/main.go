// Command tsperf is the end-to-end benchmark of this repository. It runs
// four closed-loop workloads, from UCR TSV files to warm snapshot and ANN
// queries, through the public functions of the dataset, norm, eval,
// search, corpus and ann packages; checks every workload's outputs
// against an exhaustive or inline reference; and prints every metric by
// name and unit. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash cmd/tsperf/run.sh [-workload NAME|all] [-seed N] [-seconds S]
//	    [-trace 0|1] [-trace-out FILE] [-json FILE] [-repeat K] [-scale full|smoke]
//
// or go run ./cmd/tsperf with the same flags. A run of BENCHMARK.json's
// command is given --workload, --seed, --seconds (its run_seconds) and
// --trace. One client goroutine sends each request after the previous one
// completes; the engines parallelize inside a request up to GOMAXPROCS. A
// run repeats whole passes over the workload's fixed sequence of
// operations until -seconds have passed. Every latency is scaled to the
// reference host's speed by the gauge readings taken around it (see
// gauge), and each operation's latency is the median of its repetitions.
//
// -trace 1 runs each workload in two halves, untraced and then with a
// span around every call into a layer, and prints the per-layer metrics
// instead of the end-to-end ones. README.md describes the workloads and
// the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user sees, reported by every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"series_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"resident_mb", "MB"},
	{"recall_at_1", "ratio"},
}

// perLayer lists the metrics of single layers, measured in the traced
// half. Counts and busy times are per pass of the workload's operations;
// a layer a workload does not call reports 0.
var perLayer = []metricDef{
	{"dataset.load_ms", "ms"}, {"dataset.load_calls", "count"}, {"dataset.load_mb_per_s", "MB/s"},
	{"norm.ms", "ms"}, {"norm.calls", "count"},
	{"eval.ms", "ms"},
	{"search.ms", "ms"}, {"search.calls", "count"}, {"search.prepare_ms", "ms"},
	{"search.pairs", "count"}, {"search.lb_pruned", "count"}, {"search.full_dist", "count"},
	{"search.prune_ratio", "ratio"},
	{"grid.ms", "ms"}, {"grid.candidates", "count"}, {"grid.rows", "count"}, {"grid.warm_rows", "count"},
	{"grid.repaired", "count"}, {"grid.pairs", "count"}, {"grid.lb_pruned", "count"}, {"grid.pair_lb", "count"},
	{"grid.full_dist", "count"}, {"grid.prep_total", "count"}, {"grid.prep_shared_ratio", "ratio"},
	{"grid.warm_pairs", "count"}, {"grid.warm_prune_ratio", "ratio"},
	{"elastic.dtw.full_dist", "count"}, {"elastic.msm.full_dist", "count"},
	{"elastic.dtw.ns_per_dist", "ns"}, {"elastic.msm.ns_per_dist", "ns"}, {"elastic.est_ms", "ms"},
	{"lockstep.euclidean.ns_per_dist", "ns"}, {"lockstep.lorentzian.ns_per_dist", "ns"},
	{"lockstep.manhattan.ns_per_dist", "ns"},
	{"kernel.sink.ns_per_dist", "ns"}, {"kernel.sink.alloc_kb_per_query", "KB"},
	{"corpus.build_ms", "ms"}, {"corpus.build_calls", "count"}, {"corpus.fingerprint_ms", "ms"},
	{"corpus.cache_ms", "ms"}, {"corpus.cache_hits", "count"}, {"corpus.cache_misses", "count"},
	{"corpus.cache_evictions", "count"}, {"corpus.snapshot_hits", "count"},
	{"ann.ms", "ms"}, {"ann.calls", "count"}, {"ann.embed_dist", "count"}, {"ann.exact", "count"},
	{"ann.lb_pruned", "count"}, {"ann.fallbacks", "count"}, {"ann.exact_per_query", "count"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"}, {"go.alloc_mb", "MB"},
	{"host.calib_ms_start", "ms"}, {"host.calib_ms_end", "ms"},
	{"trace.overhead_ratio", "ratio"}, {"trace.self_coverage", "ratio"},
}

// spanMetrics maps span names to the per-layer metric of their self time.
// The root span of every op, "tsperf", is the benchmark's own code.
var spanMetrics = map[string]string{
	"dataset.load":       "dataset.load_ms",
	"norm":               "norm.ms",
	"eval":               "eval.ms",
	"search":             "search.ms",
	"grid":               "grid.ms",
	"corpus.fingerprint": "corpus.fingerprint_ms",
	"corpus.cache":       "corpus.cache_ms",
	"corpus.build":       "corpus.build_ms",
	"ann":                "ann.ms",
}

// setupReps is the least number of times each workload is set up;
// set-ups repeat until they also add up to the scale's setupMin, so that
// cheap set-ups get a steadier median. setup_s is the median, each set-up
// scaled by the gauge readings just before and after it.
const setupReps = 3

// setupReadings is how many gauge readings are taken between two
// set-ups.
const setupReadings = 3

// calibReadings is how many gauge readings the median of
// host.calib_ms_start and host.calib_ms_end takes.
const calibReadings = 9

const mb = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the settings shared by every run of one invocation.
type options struct {
	sc      scale
	seconds time.Duration
	trace   bool
	dir     string
	stderr  io.Writer // where failing ops are reported
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 20, "minimum measured time per run (BENCHMARK.json's run_seconds); whole passes are run, at least one")
	trace := fs.Int("trace", 0, "1: measure per-layer metrics in a traced half of each run")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	jsonOut := fs.String("json", "", "write every run's metrics as JSON to this file")
	repeat := fs.Int("repeat", 1, "runs per workload, alternating the workload order; run k uses seed+k")
	scaleName := fs.String("scale", "full", "input sizes: full or smoke")
	dir := fs.String("dir", "", "directory for the TSV files the workloads write (default: the system's temporary directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tsperf: "+format+"\n", a...)
		return 2
	}
	sc, ok := scales[*scaleName]
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case !ok:
		return usage("unknown scale %q", *scaleName)
	case *trace != 0 && *trace != 1:
		return usage("-trace must be 0 or 1")
	case *traceOut != "" && *trace != 1:
		return usage("-trace-out needs -trace 1")
	case *repeat < 1:
		return usage("-repeat must be at least 1")
	case *seconds < 0:
		return usage("-seconds must not be negative")
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return usage("unknown workload %q", *name)
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fmt.Fprintf(stderr, "tsperf: %v\n", err)
			return 1
		}
	}
	o := options{sc: sc, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: *dir, stderr: stderr}

	ctx := context.Background()
	var runs []*runResult
	for k := 0; k < *repeat; k++ {
		order := append([]workload(nil), selected...)
		if k%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			r, err := runWorkload(ctx, w, *seed+int64(k), o)
			if err != nil {
				fmt.Fprintf(stderr, "tsperf: %s: %v\n", w.name, err)
				return 1
			}
			printRun(stdout, r, *scaleName)
			runs = append(runs, r)
		}
	}
	if *repeat > 1 {
		printSpread(stdout, selected, runs)
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, runs); err != nil {
			fmt.Fprintf(stderr, "tsperf: write trace: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(runs, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "tsperf: write json: %v\n", err)
			return 1
		}
	}
	res := summarize(selected, runs, o.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "tsperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runResult is one run of one workload.
type runResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	OpsPerPass int                `json:"ops_per_pass"`
	Passes     int                `json:"passes"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	TailPct    float64            `json:"tail_percentile"`
	TailBeyond int                `json:"tail_beyond"`
	Setups     int                `json:"setups"`
	OpMs       []float64          `json:"op_ms"`
	Checked    int                `json:"answers_checked"`
	Diag       map[string]float64 `json:"diagnostics"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`

	tracer *tracer
}

// phase is one closed-loop measurement of whole passes.
type phase struct {
	passes, ops int
	errs        int
	wall        time.Duration // without the gauge readings
	scaled      [][]float64   // per op of a pass: its latency in each pass, ms at the reference speed
	raw         [][]float64   // the same, as timed
	gaugeMs     []float64     // every gauge reading
	alloc       uint64        // bytes allocated
	gcCycles    uint32
	gcPause     time.Duration
	p           *probe
}

// runPhase runs whole passes for at least budget, reading the gauge
// before the first op and after every op. Every pass repeats the same
// operations, so each operation's latency is the median of its
// repetitions, each scaled by the readings around it.
func runPhase(ctx context.Context, inst instance, g *gauge, budget time.Duration, tr *tracer, stderr io.Writer) *phase {
	n := inst.ops()
	ph := &phase{p: newProbe(tr)}
	var ivs []interval
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tl := newTimeline(g)
	tl.read()
	for ph.passes == 0 || tl.now() < budget {
		for i := 0; i < n; i++ {
			if tr != nil {
				tr.req = ph.ops
			}
			start := tl.now()
			end := ph.p.span("tsperf")
			err := inst.run(ctx, i, ph.p)
			end()
			ivs = append(ivs, interval{start, tl.now()})
			tl.read()
			ph.ops++
			if err != nil {
				ph.errs++
				fmt.Fprintf(stderr, "tsperf: op %d: %v\n", i, err)
			}
		}
		ph.passes++
	}
	ph.wall = tl.now() - tl.spent
	runtime.ReadMemStats(&after)
	ph.scaled, ph.raw = make([][]float64, n), make([][]float64, n)
	for k, lat := range tl.scaled(ivs) {
		ph.scaled[k%n] = append(ph.scaled[k%n], lat)
		ph.raw[k%n] = append(ph.raw[k%n], ms(ivs[k].end-ivs[k].start))
	}
	ph.gaugeMs = tl.gaugeMs()
	ph.alloc = after.TotalAlloc - before.TotalAlloc
	ph.gcCycles = after.NumGC - before.NumGC
	ph.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return ph
}

func runWorkload(ctx context.Context, w workload, seed int64, o options) (*runResult, error) {
	dir, err := os.MkdirTemp(o.dir, "tsperf-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	g := newGauge()
	inst, setup, err := setUp(ctx, w, seed, dir, g, o.sc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	calibStart := g.median(calibReadings)
	budget := o.seconds
	if o.trace {
		budget /= 2
	}
	plain := runPhase(ctx, inst, g, budget, nil, o.stderr)
	var traced *phase
	if o.trace {
		traced = runPhase(ctx, inst, g, budget, newTracer(), o.stderr)
	}
	calibEnd := g.median(calibReadings)

	v, err := inst.check(ctx)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	r := &runResult{
		Workload: w.name, Seed: seed, OpsPerPass: inst.ops(), Passes: plain.passes, Setups: setup.reps,
		Attempted: plain.ops, Failed: plain.errs + v.failed, TailPct: w.tail, Checked: v.answers,
	}
	series := 0
	for i := 0; i < inst.ops(); i++ {
		series += inst.series(i)
	}
	r.OpMs = medians(plain.scaled)
	seriesPerS, p50, tail, beyond := latencies(r.OpMs, series, w.tail)
	rawSeriesPerS, rawP50, _, _ := latencies(medians(plain.raw), series, w.tail)
	r.TailBeyond = beyond
	r.EndToEnd = map[string]float64{
		"setup_s":         setup.scaled,
		"series_per_s":    seriesPerS,
		"latency_ms_p50":  p50,
		"latency_ms_tail": tail,
		"alloc_mb_per_op": float64(plain.alloc) / mb / float64(plain.ops),
		"resident_mb":     setup.resident,
		"recall_at_1":     ratio(float64(v.exact), float64(v.answers)),
	}
	r.Diag = map[string]float64{
		"fail_ratio":          ratio(float64(r.Failed), float64(r.Attempted)),
		"wall_s":              plain.wall.Seconds(),
		"raw.setup_s":         setup.raw,
		"raw.series_per_s":    rawSeriesPerS,
		"raw.latency_ms_p50":  rawP50,
		"host.gauge_ms":       median(plain.gaugeMs),
		"host.calib_ms_start": calibStart,
		"host.calib_ms_end":   calibEnd,
		"go.gc_cycles":        float64(plain.gcCycles),
		"go.gc_pause_ms":      ms(plain.gcPause),
		"gomaxprocs":          float64(runtime.GOMAXPROCS(0)),
	}
	if traced != nil {
		r.Attempted += traced.ops
		r.Failed += traced.errs
		r.Diag["fail_ratio"] = ratio(float64(r.Failed), float64(r.Attempted))
		if r.PerLayer, err = layerMetrics(ctx, inst, o.sc.sample, plain, traced); err != nil {
			return nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		r.PerLayer["host.calib_ms_start"] = calibStart
		r.PerLayer["host.calib_ms_end"] = calibEnd
		r.tracer = traced.p.tr
	}
	return r, nil
}

// setupResult is what a workload's set-up took: the median time of its
// repetitions, in s, at the reference host's speed and as timed, and the
// live heap the last one added, in MB.
type setupResult struct {
	scaled, raw float64
	reps        int
	resident    float64
}

// liveHeap returns the live heap in bytes. It collects twice: the first
// collection moves what sync.Pools hold to their victim caches and the
// second frees it, so that the result does not depend on what the pools
// happened to hold.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp sets a workload up at least setupReps times and until the
// set-ups add up to the scale's setupMin, and returns the last instance.
// resident_mb is the live heap a set-up adds: the instance's state, not
// the benchmark's own or the Go runtime's, whose goroutine records grow
// by a few kilobytes with how many goroutines the engines happened to run
// at once.
func setUp(ctx context.Context, w workload, seed int64, dir string, g *gauge, sc scale) (instance, setupResult, error) {
	var inst instance
	var ivs []interval
	var raw []float64
	var resident float64
	tl := newTimeline(g)
	// The gauge is read between set-ups, just after liveHeap has run the
	// collector, so that no reading runs beside it.
	readGauge := func() {
		for i := 0; i < setupReadings; i++ {
			tl.read()
		}
	}
	for total := time.Duration(0); len(ivs) < setupReps || total < sc.setupMin; {
		inst = nil
		readGauge()
		// Collecting the previous set-up's state here also keeps any
		// set-up from paying for another's garbage.
		before := liveHeap()
		start := tl.now()
		var err error
		if inst, err = w.setup(ctx, sc, seed, dir); err != nil {
			return nil, setupResult{}, err
		}
		end := tl.now()
		resident = (float64(liveHeap()) - float64(before)) / mb
		ivs = append(ivs, interval{start, end})
		raw = append(raw, (end - start).Seconds())
		total += end - start
	}
	readGauge()
	return inst, setupResult{scaled: median(tl.scaled(ivs)) / 1000, raw: median(raw), reps: len(ivs), resident: resident}, nil
}

// layerMetrics derives the per-layer metrics of a traced phase, adding
// those an instance measures with calls of its own.
func layerMetrics(ctx context.Context, inst instance, sample time.Duration, plain, traced *phase) (map[string]float64, error) {
	out := map[string]float64{}
	passes := float64(traced.passes)
	c := traced.p.counts
	for name, v := range c {
		out[name] = v / passes
	}
	self := traced.p.tr.selfTimes()
	var covered time.Duration
	for name, d := range self {
		if metric, ok := spanMetrics[name]; ok {
			out[metric] = ms(d) / passes
			covered += d
		}
	}
	out["dataset.load_mb_per_s"] = ratio(c["dataset.load_bytes"]/mb, self["dataset.load"].Seconds())
	out["search.prune_ratio"] = ratio(c["search.lb_pruned"], c["search.pairs"])
	out["grid.prep_shared_ratio"] = ratio(c["grid.prep_shared"], c["grid.prep_total"])
	out["grid.warm_prune_ratio"] = ratio(c["grid.warm_pruned"], c["grid.warm_pairs"])
	out["ann.exact_per_query"] = ratio(c["ann.exact"], c["ann.calls"])
	out["go.gc_cycles"] = float64(traced.gcCycles) / passes
	out["go.gc_pause_ms"] = ms(traced.gcPause) / passes
	out["go.alloc_mb"] = float64(traced.alloc) / mb / passes
	plainRate := float64(plain.ops) / plain.wall.Seconds()
	tracedRate := float64(traced.ops) / traced.wall.Seconds()
	out["trace.overhead_ratio"] = ratio(plainRate, tracedRate)
	out["trace.self_coverage"] = ratio(covered.Seconds(), traced.wall.Seconds())
	if err := inst.layers(ctx, sample, out); err != nil {
		return nil, err
	}
	// Computed, not measured: an upper estimate of the DPs' CPU time, since
	// abandoned DPs stop early.
	out["elastic.est_ms"] = (out["elastic.dtw.full_dist"]*out["elastic.dtw.ns_per_dist"] +
		out["elastic.msm.full_dist"]*out["elastic.msm.ns_per_dist"]) / 1e6
	return out, nil
}

// medians returns the median of each op's repetitions.
func medians(reps [][]float64) []float64 {
	out := make([]float64, len(reps))
	for i, xs := range reps {
		out[i] = median(xs)
	}
	return out
}

// latencies derives the timing metrics from the latencies of one pass's
// ops, in ms: the series answered per second over the whole pass, the
// median, and the tail percentile with how many ops lie beyond it.
func latencies(opMs []float64, series int, tailPct float64) (seriesPerS, p50, tail float64, beyond int) {
	sorted := append([]float64(nil), opMs...)
	sort.Float64s(sorted)
	passMs := 0.0
	for _, t := range sorted {
		passMs += t
	}
	p50, _ = percentile(sorted, 50)
	tail, beyond = percentile(sorted, tailPct)
	return float64(series) / (passMs / 1000), p50, tail, beyond
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the nearest-rank p-th percentile of sorted samples
// and how many samples lie above it.
func percentile(sorted []float64, p float64) (float64, int) {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

// quartiles returns the first quartile, the median and the third quartile
// of xs, computed as Python's statistics.quantiles(xs, n=4) does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func printRun(w io.Writer, r *runResult, scaleName string) {
	fmt.Fprintf(w, "== %s seed=%d scale=%s GOMAXPROCS=%d passes=%d ops=%d (%d per pass) wall=%.2fs\n",
		r.Workload, r.Seed, scaleName, int(r.Diag["gomaxprocs"]), r.Passes, r.Passes*r.OpsPerPass,
		r.OpsPerPass, r.Diag["wall_s"])
	line := func(name string, v float64, unit, note string) {
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", name, v, unit, note)
	}
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups, at reference speed", r.Setups)
		case "series_per_s":
			note = "one pass at each op's median latency, at reference speed"
		case "latency_ms_p50":
			note = fmt.Sprintf("of %d ops, each the median of %d passes, at reference speed", r.OpsPerPass, r.Passes)
		case "latency_ms_tail":
			note = fmt.Sprintf("p%g of %d ops, %d beyond", r.TailPct, r.OpsPerPass, r.TailBeyond)
		case "recall_at_1":
			note = fmt.Sprintf("of %d checked 1-NN answers", r.Checked)
		}
		line(d.name, r.EndToEnd[d.name], d.unit, note)
	}
	line("fail_ratio", r.Diag["fail_ratio"], "ratio", fmt.Sprintf("%d failed of %d attempted", r.Failed, r.Attempted))
	line("raw.setup_s", r.Diag["raw.setup_s"], "s", "as timed, not scaled")
	line("raw.series_per_s", r.Diag["raw.series_per_s"], "1/s", "as timed, not scaled")
	line("raw.latency_ms_p50", r.Diag["raw.latency_ms_p50"], "ms", "as timed, not scaled")
	line("host.gauge_ms", r.Diag["host.gauge_ms"], "ms", fmt.Sprintf("median gauge reading; %v on the reference host", gaugeRef))
	for _, name := range []string{"host.calib_ms_start", "host.calib_ms_end", "go.gc_cycles", "go.gc_pause_ms"} {
		unit := "ms"
		if name == "go.gc_cycles" {
			unit = "count"
		}
		line(name, r.Diag[name], unit, "untraced run")
	}
	if r.PerLayer != nil {
		fmt.Fprintf(w, "  -- per layer (traced half; counts and times per pass)\n")
		for _, d := range perLayer {
			line(d.name, r.PerLayer[d.name], d.unit, "")
		}
	}
}

// printSpread prints, for every workload and end-to-end metric, the
// median and quartiles over the repeated runs and the spread the
// acceptance check bounds: the interquartile distance as a share of the
// median.
func printSpread(w io.Writer, selected []workload, runs []*runResult) {
	for _, wl := range selected {
		fmt.Fprintf(w, "== %s over repeated runs: median [q1, q3] spread\n", wl.name)
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(valuesOf(runs, wl.name, d.name, false))
			fmt.Fprintf(w, "  %-32s %12.6g [%.6g, %.6g] %-6s %.4f\n", d.name, q2, q1, q3, d.unit, ratio(q3-q1, q2))
		}
	}
}

// valuesOf collects one metric of one workload over the runs: a
// per-layer metric when layer is set, an end-to-end one otherwise.
func valuesOf(runs []*runResult, workload, metric string, layer bool) []float64 {
	var vals []float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if layer {
			vals = append(vals, r.PerLayer[metric])
		} else {
			vals = append(vals, r.EndToEnd[metric])
		}
	}
	return vals
}

// metricValue is one entry of the result line's metrics.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the result line: the end-to-end metrics, or with
// tracing the per-layer ones, each the median over repeated runs. When
// more than one workload ran, every name is prefixed with its workload.
func summarize(selected []workload, runs []*runResult, traced bool) resultLine {
	res := resultLine{Metrics: map[string]metricValue{}}
	for _, r := range runs {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
	}
	res.Correct = res.Failed == 0
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, wl := range selected {
		prefix := ""
		if len(selected) > 1 {
			prefix = wl.name + "/"
		}
		for _, d := range defs {
			res.Metrics[prefix+d.name] = metricValue{median(valuesOf(runs, wl.name, d.name, traced)), d.unit}
		}
	}
	return res
}
