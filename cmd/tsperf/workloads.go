package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ann"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/norm"
	"repro/internal/search"
)

// scale sizes the workloads. "full" is the benchmark; "smoke" runs the
// same call paths on inputs small enough for a unit test.
type scale struct {
	lockDatasets, lockLen, lockTrain, lockTest             int
	elasticDatasets, elasticLen, elasticTrain, elasticTest int
	warmN, warmLen, warmQueries                            int
	// churnEvery requests make one epoch: the first brings a new corpus,
	// the rest query the churnCache resident ones. It must be a multiple
	// of churnCache (see churnRun.target).
	churnCorpora, churnN, churnLen, churnEvery, churnCache int

	sample   time.Duration // minimum timed length of each ns_per_dist sample
	setupMin time.Duration // minimum total time of a run's set-ups
}

var scales = map[string]scale{
	"full": {
		lockDatasets: 128, lockLen: 512, lockTrain: 24, lockTest: 48,
		elasticDatasets: 24, elasticLen: 64, elasticTrain: 24, elasticTest: 24,
		warmN: 1024, warmLen: 128, warmQueries: 256,
		churnCorpora: 16, churnN: 256, churnLen: 128, churnEvery: 16, churnCache: 4,
		sample: 50 * time.Millisecond, setupMin: 3 * time.Second,
	},
	"smoke": {
		lockDatasets: 3, lockLen: 40, lockTrain: 12, lockTest: 10,
		elasticDatasets: 3, elasticLen: 24, elasticTrain: 8, elasticTest: 6,
		warmN: 80, warmLen: 32, warmQueries: 6,
		churnCorpora: 4, churnN: 128, churnLen: 24, churnEvery: 4, churnCache: 2,
		sample: time.Millisecond,
	},
}

// checkedDatasets is how many datasets of each UCR-shaped workload are
// checked against the exhaustive reference after the timed loop.
const checkedDatasets = 3

// instance is one set-up workload: the inputs it generated and the
// resident state its requests use.
type instance interface {
	// ops is the number of operations in one pass; runs repeat whole passes.
	ops() int
	// series is the number of test or query series op i classifies.
	series(i int) int
	// run executes op i, keeping its outputs for check.
	run(ctx context.Context, i int, p *probe) error
	// check compares the outputs of the latest pass with a reference.
	check(ctx context.Context) (verdict, error)
	// layers measures, outside the timed loop, the per-layer metrics that
	// need calls of their own: index preparation, ns per distance (each
	// timed for at least sample) and allocation per query. It adds them
	// to out.
	layers(ctx context.Context, sample time.Duration, out map[string]float64) error
}

// verdict is the outcome of an instance's check.
type verdict struct {
	failed  int // ops whose outputs differ from the reference
	answers int // 1-NN answers compared with the exact answer
	exact   int // of those, equal to it
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	// tail is the latency percentile reported as latency_ms_tail: at full
	// scale, the highest of 90, 95 and 99 that leaves at least 10 of a
	// pass's ops beyond it.
	tail  float64
	setup func(ctx context.Context, sc scale, seed int64, dir string) (instance, error)
}

var workloads = []workload{
	{"ucr-lockstep", 90, setupLockstep},
	{"ucr-elastic", 90, setupElastic},
	{"query-warm", 95, setupWarm},
	{"ingest-churn", 95, setupChurn},
}

// shapeSeed fixes the generated datasets: their shapes, class prototypes
// and distortions. The run's seed adds a layer of Gaussian noise of
// standard deviation seedNoise to every series (withNoise). How much the
// lower bounds and early abandoning prune depends on how far apart a
// dataset's class prototypes lie; drawn from the run's seed, they moved
// the median DTW query cost of query-warm by a fifth and the tuned ops of
// ucr-elastic by a tenth from seed to seed. With the prototypes fixed, a
// different seed changes every input value but hardly the amount of work,
// which keeps the benchmark's numbers comparable across seeds.
const shapeSeed = 2020

// seedNoise is the standard deviation of the noise the run's seed adds to
// every z-normalized series.
const seedNoise = 0.1

// withNoise returns each series of xs with Gaussian noise from rng added
// and z-normalized again, the form the generator returns.
func withNoise(rng *rand.Rand, xs [][]float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		y := make([]float64, len(x))
		for j, v := range x {
			y[j] = v + seedNoise*rng.NormFloat64()
		}
		out[i] = dataset.ZNormalize(y)
	}
	return out
}

// ucrArchive returns count dataset configurations in the manner of
// dataset.GenerateArchive (rotating families, distortion profiles and
// heavy-tailed noise), all drawn from shapeSeed.
func ucrArchive(prefix string, count, maxLen, maxTrain, maxTest int) []dataset.Config {
	rng := rand.New(rand.NewSource(shapeSeed))
	families := int(dataset.FamilyWalk) + 1
	cfgs := make([]dataset.Config, count)
	for i := range cfgs {
		fam := dataset.Family(i % families)
		classes := 2 + rng.Intn(5)
		cfg := dataset.Config{
			Name:       fmt.Sprintf("%s%02d%s", prefix, i, fam),
			Family:     fam,
			Length:     min(60+rng.Intn(197), maxLen),
			NumClasses: classes,
			TrainSize:  max(min(classes*(4+rng.Intn(9)), maxTrain-maxTrain%classes), classes),
			TestSize:   min(classes*(6+rng.Intn(13)), maxTest),
			Seed:       shapeSeed*1_000_003 + int64(i)*7919,
			NoiseSigma: 0.15 + 0.35*rng.Float64(),
			AmpJitter:  0.1 + 0.2*rng.Float64(),
		}
		switch i % 3 {
		case 1: // shift-dominated
			cfg.ShiftFrac = 0.1 + 0.25*rng.Float64()
			cfg.WarpFrac = 0.05 * rng.Float64()
		case 2: // warp-dominated
			cfg.ShiftFrac = 0.05 * rng.Float64()
			cfg.WarpFrac = 0.15 + 0.25*rng.Float64()
		}
		if i%4 == 3 {
			cfg.OutlierProb = 0.01 + 0.02*rng.Float64()
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// ucrFiles is a generated archive written as UCR TSV files.
type ucrFiles struct {
	dir   string
	names []string
	bytes []int64            // TSV bytes of both splits
	tests []int              // test split sizes
	kept  []*dataset.Dataset // generated copies of the checked datasets
}

// writeUCR generates the datasets of cfgs, adds the noise of seed and
// writes them to dir.
func writeUCR(dir string, cfgs []dataset.Config, seed int64) (*ucrFiles, error) {
	f := &ucrFiles{dir: dir}
	rng := rand.New(rand.NewSource(seed))
	for i, cfg := range cfgs {
		d := dataset.Generate(cfg)
		d.Train, d.Test = withNoise(rng, d.Train), withNoise(rng, d.Test)
		if err := dataset.SaveUCR(dir, d); err != nil {
			return nil, fmt.Errorf("write %s: %w", d.Name, err)
		}
		var n int64
		for _, split := range []string{"TRAIN", "TEST"} {
			st, err := os.Stat(filepath.Join(dir, d.Name, d.Name+"_"+split+".tsv"))
			if err != nil {
				return nil, err
			}
			n += st.Size()
		}
		f.names = append(f.names, d.Name)
		f.bytes = append(f.bytes, n)
		f.tests = append(f.tests, len(d.Test))
		if i < checkedDatasets {
			f.kept = append(f.kept, d)
		}
	}
	return f, nil
}

// load reads dataset i from its TSV files.
func (f *ucrFiles) load(p *probe, i int) (*dataset.Dataset, error) {
	end := p.span("dataset.load")
	d, err := dataset.LoadUCR(f.dir, f.names[i])
	end()
	p.add("dataset.load_calls", 1)
	p.add("dataset.load_bytes", float64(f.bytes[i]))
	return d, err
}

// reload reads checked dataset i again and reports whether the loader
// returns the generated series and labels bit for bit.
func (f *ucrFiles) reload(i int) (bool, error) {
	got, err := dataset.LoadUCR(f.dir, f.names[i])
	if err != nil {
		return false, err
	}
	want := f.kept[i]
	return sameSeries(got.Train, want.Train) && sameSeries(got.Test, want.Test) &&
		sameInts(got.TrainLabels, want.TrainLabels) && sameInts(got.TestLabels, want.TestLabels), nil
}

// samplePairs returns up to 8 x 8 (test, train) pairs of every checked
// dataset after applying n: the pairs each ns_per_dist is timed on.
func (f *ucrFiles) samplePairs(n norm.Normalizer) [][2][]float64 {
	var pairs [][2][]float64
	for _, d := range f.kept {
		nd := eval.Normalize(d, n)
		pairs = append(pairs, pairsOf(nd.Test, nd.Train, 8)...)
	}
	return pairs
}

func normalize(p *probe, d *dataset.Dataset, n norm.Normalizer) *dataset.Dataset {
	end := p.span("norm")
	nd := eval.Normalize(d, n)
	end()
	p.add("norm.calls", 1)
	return nd
}

// accuracySink keeps the scoring call of classify from being optimized
// away.
var accuracySink float64

// classify runs the 1-NN search of d's test split against its train split
// and scores it, as a user of the evaluation framework does.
func classify(ctx context.Context, p *probe, m measure.Measure, d *dataset.Dataset) ([]int, error) {
	end := p.span("search")
	res, err := search.OneNNCtx(ctx, m, d.Test, d.Train)
	end()
	if err != nil {
		return nil, err
	}
	p.addSearch(m, res.Stats)
	end = p.span("eval")
	accuracySink += eval.AccuracyFromNeighbors(res.Indices, d.TestLabels, d.TrainLabels)
	end()
	return res.Indices, nil
}

// exhaustive is the reference 1-NN answer: the argmin of every row of the
// full test-by-train matrix.
func exhaustive(m measure.Measure, d *dataset.Dataset) []int {
	return eval.Neighbors(eval.Matrix(m, d.Test, d.Train))
}

// prepareTime times an extra index preparation on the references of one
// search, the part of search.ms that is not the scan.
func prepareTime(ctx context.Context, m measure.Measure, refs [][]float64, snap *corpus.Snapshot) (time.Duration, error) {
	start := time.Now()
	_, err := search.NewIndexSnapshotCtx(ctx, m, refs, snap)
	return time.Since(start), err
}

// ucr-lockstep: Table 2 of the paper. One op loads a dataset, applies all
// 8 normalizations and classifies the test split with three lock-step
// measures.
type lockstepRun struct {
	*ucrFiles
	norms []norm.Normalizer
	ms    []measure.Measure
	out   [][][]int // [checked dataset][norm*len(ms)+measure] neighbors of the latest pass
}

func setupLockstep(_ context.Context, sc scale, seed int64, dir string) (instance, error) {
	f, err := writeUCR(dir, ucrArchive("Lock", sc.lockDatasets, sc.lockLen, sc.lockTrain, sc.lockTest), seed)
	if err != nil {
		return nil, err
	}
	r := &lockstepRun{
		ucrFiles: f,
		norms:    norm.All(),
		ms:       []measure.Measure{lockstep.Euclidean(), lockstep.Lorentzian(), lockstep.Manhattan()},
	}
	r.out = make([][][]int, len(f.kept))
	for i := range r.out {
		r.out[i] = make([][]int, len(r.norms)*len(r.ms))
	}
	return r, nil
}

func (r *lockstepRun) ops() int { return len(r.names) }

func (r *lockstepRun) series(i int) int { return len(r.norms) * len(r.ms) * r.tests[i] }

func (r *lockstepRun) run(ctx context.Context, i int, p *probe) error {
	d, err := r.load(p, i)
	if err != nil {
		return err
	}
	for ni, n := range r.norms {
		nd := normalize(p, d, n)
		for mi, m := range r.ms {
			nb, err := classify(ctx, p, m, nd)
			if err != nil {
				return err
			}
			if i < len(r.out) {
				r.out[i][ni*len(r.ms)+mi] = nb
			}
		}
	}
	return nil
}

func (r *lockstepRun) check(context.Context) (verdict, error) {
	var v verdict
	for i, d := range r.kept {
		ok, err := r.reload(i)
		if err != nil {
			return v, err
		}
		for ni, n := range r.norms {
			nd := eval.Normalize(d, n)
			for mi, m := range r.ms {
				ok = v.compare(r.out[i][ni*len(r.ms)+mi], exhaustive(m, nd)) && ok
			}
		}
		if !ok {
			v.failed++
		}
	}
	return v, nil
}

func (r *lockstepRun) layers(ctx context.Context, sample time.Duration, out map[string]float64) error {
	var prep time.Duration
	for i := range r.names {
		d, err := dataset.LoadUCR(r.dir, r.names[i])
		if err != nil {
			return err
		}
		for _, n := range r.norms {
			nd := eval.Normalize(d, n)
			for _, m := range r.ms {
				t, err := prepareTime(ctx, m, nd.Train, nil)
				if err != nil {
					return err
				}
				prep += t
			}
		}
	}
	out["search.prepare_ms"] = ms(prep)
	pairs := r.samplePairs(nil)
	for mi, name := range []string{"euclidean", "lorentzian", "manhattan"} {
		out["lockstep."+name+".ns_per_dist"] = nsPerDist(r.ms[mi], pairs, sample)
	}
	return nil
}

// ucr-elastic: Tables 5 and 6 of the paper. One op loads a dataset,
// z-normalizes it and classifies the test split under one of 7
// configurations: a fixed DTW, MSM or SINK, ED, the baseline every table
// of the paper compares against, or DTW, MSM or SINK tuned by leave-one-out
// over its thinned Table 4 grid. The configurations' costs form clusters
// of one op per dataset; with an odd number of them the median op falls
// inside a cluster (tuned DTW), not on the gap between two.
type elasticRun struct {
	*ucrFiles
	fixed  []measure.Measure
	grids  []eval.Grid
	chosen []measure.Measure // per op: the tuned pick of the latest pass, nil for fixed configurations
	out    [][][]int         // [checked dataset][configuration] test neighbors of the latest pass
}

func setupElastic(_ context.Context, sc scale, seed int64, dir string) (instance, error) {
	f, err := writeUCR(dir, ucrArchive("Elastic", sc.elasticDatasets, sc.elasticLen, sc.elasticTrain, sc.elasticTest), seed)
	if err != nil {
		return nil, err
	}
	r := &elasticRun{
		ucrFiles: f,
		fixed:    []measure.Measure{elastic.DTW{DeltaPercent: 10}, elastic.MSM{C: 0.5}, kernel.SINK{Gamma: 5}, lockstep.Euclidean()},
		grids:    []eval.Grid{eval.Thin(eval.DTWGrid(), 2), eval.Thin(eval.MSMGrid(), 2), eval.Thin(eval.SINKGrid(), 2)},
	}
	r.chosen = make([]measure.Measure, r.ops())
	r.out = make([][][]int, len(f.kept))
	for i := range r.out {
		r.out[i] = make([][]int, r.configs())
	}
	return r, nil
}

func (r *elasticRun) configs() int { return len(r.fixed) + len(r.grids) }

func (r *elasticRun) ops() int { return len(r.names) * r.configs() }

func (r *elasticRun) series(i int) int { return r.tests[i/r.configs()] }

func (r *elasticRun) run(ctx context.Context, i int, p *probe) error {
	di, c := i/r.configs(), i%r.configs()
	d, err := r.load(p, di)
	if err != nil {
		return err
	}
	nd := normalize(p, d, norm.ZScore())
	var m measure.Measure
	if c < len(r.fixed) {
		m = r.fixed[c]
	} else {
		g := r.grids[c-len(r.fixed)]
		end := p.span("grid")
		chosen, _, st, err := eval.TuneSupervisedDetailedCtx(ctx, g, nd.Train, nd.TrainLabels)
		end()
		if err != nil {
			return err
		}
		p.addGrid(g.Candidates[0], st)
		m, r.chosen[i] = chosen, chosen
	}
	nb, err := classify(ctx, p, m, nd)
	if err != nil {
		return err
	}
	if di < len(r.out) {
		r.out[di][c] = nb
	}
	return nil
}

// tunedReference is the pick the grid engine must reproduce: one
// search.LeaveOneOut per candidate, the first best leave-one-out accuracy
// winning.
func tunedReference(g eval.Grid, d *dataset.Dataset) measure.Measure {
	best, bestAcc := g.Candidates[0], -1.0
	for _, m := range g.Candidates {
		res := search.LeaveOneOut(m, d.Train)
		if acc := eval.AccuracyFromNeighbors(res.Indices, d.TrainLabels, d.TrainLabels); acc > bestAcc {
			best, bestAcc = m, acc
		}
	}
	return best
}

func (r *elasticRun) check(context.Context) (verdict, error) {
	var v verdict
	for di, d := range r.kept {
		loaded, err := r.reload(di)
		if err != nil {
			return v, err
		}
		nd := eval.Normalize(d, norm.ZScore())
		for c := 0; c < r.configs(); c++ {
			ok := loaded
			var m measure.Measure
			if c < len(r.fixed) {
				m = r.fixed[c]
			} else {
				m = tunedReference(r.grids[c-len(r.fixed)], nd)
				got := r.chosen[di*r.configs()+c]
				ok = ok && got != nil && got.Name() == m.Name()
			}
			if !v.compare(r.out[di][c], exhaustive(m, nd)) || !ok {
				v.failed++
			}
		}
	}
	return v, nil
}

func (r *elasticRun) layers(ctx context.Context, sample time.Duration, out map[string]float64) error {
	var prep time.Duration
	for i := 0; i < r.ops(); i++ {
		d, err := dataset.LoadUCR(r.dir, r.names[i/r.configs()])
		if err != nil {
			return err
		}
		m := r.chosen[i]
		if c := i % r.configs(); c < len(r.fixed) {
			m = r.fixed[c]
		}
		t, err := prepareTime(ctx, m, eval.Normalize(d, norm.ZScore()).Train, nil)
		if err != nil {
			return err
		}
		prep += t
	}
	out["search.prepare_ms"] = ms(prep)
	pairs := r.samplePairs(norm.ZScore())
	out["elastic.dtw.ns_per_dist"] = nsPerDist(r.fixed[0], pairs, sample)
	out["elastic.msm.ns_per_dist"] = nsPerDist(r.fixed[1], pairs, sample)
	out["kernel.sink.ns_per_dist"] = nsPerDist(r.fixed[2], pairs, sample)
	return nil
}

// answer is one 1-NN answer: a reference index and its distance.
type answer struct {
	idx  int
	dist float64
}

// Request kinds of query-warm, rotating per request.
const (
	kindDTW = iota
	kindSINK
	kindANN
	kinds
)

// annConfig is the ANN configuration of both query workloads over a
// corpus of n series: a candidate budget of max(64, n/8), twice the
// adaptive default, at which recall on these corpora is 1 on every seed
// tried, so that any loss of recall shows in recall_at_1.
func annConfig(n int) ann.Config { return ann.Config{Seed: 2, Candidates: max(64, n/8)} }

// queryParts is how many generated datasets make up one query corpus.
const queryParts = 8

// queryCorpus generates a corpus of n series and q queries from the
// family the ANN engine's own benchmark uses: queryParts datasets of 8
// classes each, generated from shape, with the noise of seed added. n
// must be a multiple of queryParts, with at least 8 series per part.
func queryCorpus(n, length, q int, shape, seed int64) (refs, queries [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < queryParts; j++ {
		d := dataset.Generate(dataset.Config{
			Name: "Query", Family: dataset.FamilyHarmonic, Length: length, NumClasses: 8,
			TrainSize: n / queryParts, TestSize: (q + queryParts - 1) / queryParts,
			Seed: shape*queryParts + int64(j), NoiseSigma: 0.2, ShiftFrac: 0.05,
		})
		refs = append(refs, withNoise(rng, d.Train)...)
		queries = append(queries, withNoise(rng, d.Test)...)
	}
	return refs, queries[:q]
}

// query-warm: the serving path. A snapshot of the resident corpus holds
// DTW envelopes, SINK preparations and a DTW ANN index; each request is
// one query, answered by exact DTW, exact SINK or approximate DTW.
type warmRun struct {
	refs, queries [][]float64
	snap          *corpus.Snapshot
	dtw, sink     measure.Measure
	cfg           ann.Config
	out           []answer // per op of the latest pass
}

func setupWarm(ctx context.Context, sc scale, seed int64, _ string) (instance, error) {
	refs, queries := queryCorpus(sc.warmN, sc.warmLen, sc.warmQueries, shapeSeed, seed)
	r := &warmRun{refs: refs, queries: queries, dtw: elastic.DTW{DeltaPercent: 10}, sink: kernel.SINK{Gamma: 5}, cfg: annConfig(sc.warmN)}
	snap, err := corpus.BuildCtx(ctx, r.refs, corpus.Options{
		Measures: []measure.Measure{r.dtw, r.sink},
		ANN:      []corpus.ANNSpec{{Measure: r.dtw, Config: r.cfg}},
	})
	if err != nil {
		return nil, err
	}
	r.snap = snap
	r.out = make([]answer, r.ops())
	return r, nil
}

func (r *warmRun) ops() int { return kinds * len(r.queries) }

func (r *warmRun) series(int) int { return 1 }

func (r *warmRun) exactMeasure(i int) measure.Measure {
	if i%kinds == kindDTW {
		return r.dtw
	}
	return r.sink
}

func (r *warmRun) run(ctx context.Context, i int, p *probe) error {
	q := [][]float64{r.queries[i/kinds]}
	if i%kinds == kindANN {
		end := p.span("ann")
		res, err := search.OneNNApproxSnapshotCtx(ctx, r.dtw, q, r.refs, r.cfg, r.snap)
		end()
		if err != nil {
			return err
		}
		p.addANN(r.dtw, res.Stats)
		r.out[i] = answer{res.Indices[0], res.Distances[0]}
		return nil
	}
	m := r.exactMeasure(i)
	hits := r.snap.Hits().Total()
	end := p.span("search")
	res, err := search.OneNNSnapshotCtx(ctx, m, q, r.refs, r.snap)
	end()
	if err != nil {
		return err
	}
	p.add("corpus.snapshot_hits", float64(r.snap.Hits().Total()-hits))
	p.addSearch(m, res.Stats)
	r.out[i] = answer{res.Indices[0], res.Distances[0]}
	return nil
}

// check compares every 10th exact answer with an inline search and every
// ANN answer with the exact DTW 1-NN.
func (r *warmRun) check(ctx context.Context) (verdict, error) {
	var v verdict
	exact, err := search.OneNNCtx(ctx, r.dtw, r.queries, r.refs)
	if err != nil {
		return v, err
	}
	exactOps := 0
	for i, a := range r.out {
		qi := i / kinds
		if i%kinds == kindANN {
			if !v.checkANN(r.dtw, r.queries[qi], r.refs, a, exact, qi) {
				v.failed++
			}
			continue
		}
		exactOps++
		if exactOps%10 != 1 {
			continue
		}
		want, err := search.OneNNCtx(ctx, r.exactMeasure(i), [][]float64{r.queries[qi]}, r.refs)
		if err != nil {
			return v, err
		}
		if !v.compareAnswer(a, answer{want.Indices[0], want.Distances[0]}) {
			v.failed++
		}
	}
	return v, nil
}

func (r *warmRun) layers(ctx context.Context, sample time.Duration, out map[string]float64) error {
	var prep time.Duration
	for i := 0; i < r.ops(); i++ {
		if i%kinds == kindANN {
			continue
		}
		t, err := prepareTime(ctx, r.exactMeasure(i), r.refs, r.snap)
		if err != nil {
			return err
		}
		prep += t
	}
	out["search.prepare_ms"] = ms(prep)
	pairs := pairsOf(r.queries, r.refs, 8)
	out["elastic.dtw.ns_per_dist"] = nsPerDist(r.dtw, pairs, sample)
	out["kernel.sink.ns_per_dist"] = nsPerDist(r.sink, pairs, sample)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range r.queries {
		if _, err := search.OneNNSnapshotCtx(ctx, r.sink, [][]float64{q}, r.refs, r.snap); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	out["kernel.sink.alloc_kb_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(r.queries))
	return nil
}

// ingest-churn: writes beside reads. Corpora arrive one per epoch of
// churnEvery requests into an LRU of churnCache snapshots keyed by content
// fingerprint; every request, the first of an epoch included, is an ANN
// query against a resident corpus.
type churnRun struct {
	corpora  [][][]float64 // series of each corpus
	queries  [][][]float64 // churnEvery queries per corpus
	every    int
	resident int // corpora the cache holds
	cache    *corpus.Cache
	dtw      measure.Measure
	cfg      ann.Config
	out      []answer // per op of the latest pass
}

func setupChurn(ctx context.Context, sc scale, seed int64, _ string) (instance, error) {
	r := &churnRun{
		every: sc.churnEvery, resident: sc.churnCache, cache: corpus.NewCache(sc.churnCache),
		dtw: elastic.DTW{DeltaPercent: 10}, cfg: annConfig(sc.churnN),
	}
	for k := 0; k < sc.churnCorpora; k++ {
		refs, queries := queryCorpus(sc.churnN, sc.churnLen, sc.churnEvery, shapeSeed+1+int64(k), seed*1_000_003+int64(k)*7919)
		r.corpora = append(r.corpora, refs)
		r.queries = append(r.queries, queries)
	}
	// The last churnCache corpora are resident when the first pass starts,
	// in the order a pass leaves them, so every pass does the same work.
	p := newProbe(nil)
	for k := sc.churnCorpora - sc.churnCache; k < sc.churnCorpora; k++ {
		if _, err := r.snapshot(ctx, p, k); err != nil {
			return nil, err
		}
	}
	r.out = make([]answer, r.ops())
	return r, nil
}

func (r *churnRun) ops() int { return len(r.corpora) * r.every }

func (r *churnRun) series(int) int { return 1 }

// target returns the corpus and query of op i. The first op of epoch e
// brings corpus e; the others rotate over the resident corpora e, e-1, ...,
// e-resident+1 so that each epoch ends with them used oldest first, and the
// least recently used entry, the one the next corpus evicts, is always the
// oldest.
func (r *churnRun) target(i int) (k, q int) {
	e, s := i/r.every, i%r.every
	back := 0
	if s > 0 {
		back = r.resident - 1 - s%r.resident
	}
	n := len(r.corpora)
	return ((e-back)%n + n) % n, s
}

// snapshot returns corpus k's snapshot from the cache, building it with
// its DTW envelopes and DTW ANN index on a miss.
func (r *churnRun) snapshot(ctx context.Context, p *probe, k int) (*corpus.Snapshot, error) {
	refs := r.corpora[k]
	end := p.span("corpus.fingerprint")
	fp := corpus.FingerprintOf(refs)
	end()
	before := r.cache.Stats()
	end = p.span("corpus.cache")
	v, err := r.cache.GetOrBuildCtx(ctx, corpus.Key{FP: fp, Measure: r.dtw.Name(), Band: "snapshot+ann"}, func(ctx context.Context) (any, error) {
		end := p.span("corpus.build")
		defer end()
		p.add("corpus.build_calls", 1)
		return corpus.BuildCtx(ctx, refs, corpus.Options{
			Measures: []measure.Measure{r.dtw},
			ANN:      []corpus.ANNSpec{{Measure: r.dtw, Config: r.cfg}},
		})
	})
	end()
	if err != nil {
		return nil, err
	}
	p.addCache(before, r.cache.Stats())
	return v.(*corpus.Snapshot), nil
}

func (r *churnRun) run(ctx context.Context, i int, p *probe) error {
	k, qi := r.target(i)
	snap, err := r.snapshot(ctx, p, k)
	if err != nil {
		return err
	}
	end := p.span("ann")
	res, err := search.OneNNApproxSnapshotCtx(ctx, r.dtw, [][]float64{r.queries[k][qi]}, r.corpora[k], r.cfg, snap)
	end()
	if err != nil {
		return err
	}
	p.addANN(r.dtw, res.Stats)
	r.out[i] = answer{res.Indices[0], res.Distances[0]}
	return nil
}

// check compares every answer with the exact DTW 1-NN of an inline search.
func (r *churnRun) check(ctx context.Context) (verdict, error) {
	var v verdict
	exact := make([]search.Result, len(r.corpora))
	for k := range r.corpora {
		res, err := search.OneNNCtx(ctx, r.dtw, r.queries[k], r.corpora[k])
		if err != nil {
			return v, err
		}
		exact[k] = res
	}
	for i, a := range r.out {
		k, qi := r.target(i)
		if !v.checkANN(r.dtw, r.queries[k][qi], r.corpora[k], a, exact[k], qi) {
			v.failed++
		}
	}
	return v, nil
}

func (r *churnRun) layers(_ context.Context, sample time.Duration, out map[string]float64) error {
	out["elastic.dtw.ns_per_dist"] = nsPerDist(r.dtw, pairsOf(r.queries[0], r.corpora[0], 8), sample)
	return nil
}

// compare counts got's answers against the reference neighbors want and
// reports whether all of them are equal.
func (v *verdict) compare(got, want []int) bool {
	v.answers += len(want)
	if len(got) != len(want) {
		return false
	}
	equal := 0
	for i := range want {
		if got[i] == want[i] {
			equal++
		}
	}
	v.exact += equal
	return equal == len(want)
}

// compareAnswer checks an exact answer: same index, bitwise same distance.
func (v *verdict) compareAnswer(got, want answer) bool {
	v.answers++
	if got.idx != want.idx || math.Float64bits(got.dist) != math.Float64bits(want.dist) {
		return false
	}
	v.exact++
	return true
}

// checkANN checks an approximate answer to query q: its distance must be
// the sanitized exact distance to the reference it names and no less than
// the exact 1-NN distance. It counts toward recall when it is the exact
// 1-NN itself.
func (v *verdict) checkANN(m measure.Measure, q []float64, refs [][]float64, got answer, exact search.Result, qi int) bool {
	v.answers++
	if got.idx < 0 || got.idx >= len(refs) {
		return false
	}
	if got.idx == exact.Indices[qi] {
		v.exact++
	}
	d := measure.Sanitize(m.Distance(q, refs[got.idx]))
	return math.Float64bits(got.dist) == math.Float64bits(d) && got.dist >= exact.Distances[qi]
}

func sameSeries(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pairsOf returns the (query, reference) pairs of the first k queries and
// the first k references.
func pairsOf(queries, refs [][]float64, k int) [][2][]float64 {
	var pairs [][2][]float64
	for _, q := range queries[:min(k, len(queries))] {
		for _, r := range refs[:min(k, len(refs))] {
			pairs = append(pairs, [2][]float64{q, r})
		}
	}
	return pairs
}

// distSink keeps the timed Distance calls of nsPerDist from being
// optimized away.
var distSink float64

// nsPerDist times m.Distance over a fixed sample of a workload's own
// pairs, repeating the sample until at least atLeast has elapsed.
func nsPerDist(m measure.Measure, pairs [][2][]float64, atLeast time.Duration) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < atLeast {
		for _, pr := range pairs {
			distSink += m.Distance(pr[0], pr[1])
		}
		calls += len(pairs)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
