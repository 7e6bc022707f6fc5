package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/lockstep"
	"repro/internal/norm"
	"repro/internal/run"
	"repro/internal/sliding"
)

// must unwraps a driver result; the background context never cancels, so
// an error is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// tinyOpts builds a small deterministic option set that keeps every
// experiment driver fast enough for unit tests.
func tinyOpts() Options {
	return Options{
		Archive: dataset.GenerateArchive(dataset.ArchiveOptions{
			Seed: 3, Count: 9, MaxLength: 48, MaxTrain: 10, MaxTest: 12,
		}),
		GridStride: 6,
	}.Defaults()
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.Defaults()
	if o.WilcoxonAlpha != 0.05 || o.FriedmanAlpha != 0.10 || o.GridStride != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if len(o.Archive) != 24 {
		t.Fatalf("default archive size %d, want 24", len(o.Archive))
	}
}

func TestComboMean(t *testing.T) {
	c := Combo{Accs: []float64{0.5, 0.7, 0.9}}
	if math.Abs(c.Mean()-0.7) > 1e-12 {
		t.Fatalf("mean = %g", c.Mean())
	}
	if (Combo{}).Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestEvaluateComboAccuraciesInRange(t *testing.T) {
	o := tinyOpts()
	c := must(EvaluateComboCtx(context.Background(), o.Archive, lockstep.Euclidean(), norm.ZScore()))
	if len(c.Accs) != len(o.Archive) {
		t.Fatalf("accs %d, want %d", len(c.Accs), len(o.Archive))
	}
	for _, a := range c.Accs {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %g out of range", a)
		}
	}
	if c.Measure != "euclidean" || c.Scaling != "zscore" {
		t.Fatalf("labels wrong: %q %q", c.Measure, c.Scaling)
	}
}

func TestCompareToBaselineCounts(t *testing.T) {
	c := Combo{Measure: "a", Scaling: "s", Accs: []float64{0.9, 0.8, 0.5}}
	base := Combo{Measure: "b", Scaling: "s", Accs: []float64{0.8, 0.8, 0.6}}
	r := CompareToBaseline(c, base, 0.05)
	if r.Wins != 1 || r.Ties != 1 || r.Losses != 1 {
		t.Fatalf("counts %d/%d/%d", r.Wins, r.Ties, r.Losses)
	}
}

func TestBuildTableFiltersBelowBaseline(t *testing.T) {
	base := Combo{Measure: "base", Accs: []float64{0.5, 0.5}}
	good := Combo{Measure: "good", Accs: []float64{0.9, 0.9}}
	bad := Combo{Measure: "bad", Accs: []float64{0.1, 0.1}}
	tab := BuildTable("t", []Combo{good, bad}, base, 0.05, false)
	if len(tab.Rows) != 1 || tab.Rows[0].Measure != "good" {
		t.Fatalf("rows = %+v", tab.Rows)
	}
	all := BuildTable("t", []Combo{good, bad}, base, 0.05, true)
	if len(all.Rows) != 2 {
		t.Fatalf("keepAll rows = %d", len(all.Rows))
	}
	// Sorted by descending accuracy.
	if all.Rows[0].Measure != "good" {
		t.Fatal("rows not sorted by accuracy")
	}
}

func TestTableRenderContainsBaseline(t *testing.T) {
	base := Combo{Measure: "base", Scaling: "zscore", Accs: []float64{0.5}}
	tab := BuildTable("Title", []Combo{{Measure: "m", Scaling: "s", Accs: []float64{0.9}}}, base, 0.05, true)
	out := tab.Render()
	for _, want := range []string{"Title", "base", "m", "AvgAcc"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ShapeAndPhenomena(t *testing.T) {
	o := tinyOpts()
	tab := must(Table2Ctx(context.Background(), o, nil))
	if tab.Baseline.Measure != "euclidean" {
		t.Fatalf("baseline = %s", tab.Baseline.Measure)
	}
	// Rows must genuinely beat the baseline's average accuracy.
	for _, r := range tab.Rows {
		if r.AvgAcc <= tab.Baseline.Mean() {
			t.Errorf("row %s/%s avg %g <= baseline %g", r.Measure, r.Scaling, r.AvgAcc, tab.Baseline.Mean())
		}
	}
	// The L1 family should appear among the better combos (the paper's
	// headline lock-step finding).
	found := false
	for _, r := range tab.Rows {
		if r.Measure == "lorentzian" || r.Measure == "manhattan" || r.Measure == "avgl1linf" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no L1-family measure above the ED baseline; archive phenomena broken")
	}
}

func TestTable3SlidingBeatsLockstep(t *testing.T) {
	o := tinyOpts()
	tab := must(Table3Ctx(context.Background(), o, nil))
	// NCCc with z-score must appear above the Lorentzian baseline on the
	// shift-heavy synthetic archive (misconception M3's setup).
	var found *Row
	for i, r := range tab.Rows {
		if r.Measure == "nccc" && r.Scaling == "zscore" {
			found = &tab.Rows[i]
			break
		}
	}
	if found == nil {
		t.Fatal("nccc/zscore not above baseline")
	}
	if found.AvgAcc <= tab.Baseline.Mean() {
		t.Fatalf("nccc avg %g <= baseline %g", found.AvgAcc, tab.Baseline.Mean())
	}
}

func TestTable5ContainsBothProtocols(t *testing.T) {
	o := tinyOpts()
	tab := must(Table5Ctx(context.Background(), o, nil))
	var loocv, fixed int
	for _, r := range tab.Rows {
		switch r.Scaling {
		case "LOOCV":
			loocv++
		case "fixed":
			fixed++
		}
	}
	if loocv != 6 { // 7 elastic minus parameter-free ERP
		t.Errorf("LOOCV rows = %d, want 6", loocv)
	}
	if fixed != 8 { // the unsupervised list includes both DTW windows
		t.Errorf("fixed rows = %d, want 8", fixed)
	}
	if tab.Baseline.Measure != "nccc" {
		t.Errorf("baseline = %s, want nccc", tab.Baseline.Measure)
	}
}

func TestTable6KernelsEvaluated(t *testing.T) {
	o := tinyOpts()
	o.GridStride = 8
	tab := must(Table6Ctx(context.Background(), o, nil))
	if len(tab.Rows) != 8 { // 4 supervised + 4 fixed
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	// RBF (lock-step kernel) must rank below the elastic/sliding kernels
	// on an alignment-heavy archive.
	var rbfFixed, kdtwFixed float64
	for _, r := range tab.Rows {
		if r.Scaling != "fixed" {
			continue
		}
		if strings.HasPrefix(r.Measure, "rbf") {
			rbfFixed = r.AvgAcc
		}
		if strings.HasPrefix(r.Measure, "kdtw") {
			kdtwFixed = r.AvgAcc
		}
	}
	if rbfFixed >= kdtwFixed {
		t.Errorf("RBF %g >= KDTW %g; expected RBF to trail", rbfFixed, kdtwFixed)
	}
}

func TestTable7EmbeddingsEvaluated(t *testing.T) {
	o := tinyOpts()
	tab := must(Table7Ctx(context.Background(), o, nil))
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	names := map[string]bool{}
	for _, r := range tab.Rows {
		names[strings.SplitN(r.Measure, "[", 2)[0]] = true
	}
	for _, want := range []string{"grail", "rws", "spiral", "sidl"} {
		if !names[want] {
			t.Errorf("missing embedding %s in %v", want, names)
		}
	}
}

func TestTable4Renders(t *testing.T) {
	out := Table4()
	for _, want := range []string{"msm", "dtw", "lcss", "twe", "kdtw", "gak", "sink", "rbf", "minkowski"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 missing %s", want)
		}
	}
}

func TestFigure2Ranking(t *testing.T) {
	o := tinyOpts()
	r := must(Figure2Ctx(context.Background(), o, nil))
	if len(r.Names) != 6 {
		t.Fatalf("names = %d, want 6", len(r.Names))
	}
	if r.Friedman.K != 6 || r.Friedman.N != len(o.Archive) {
		t.Fatalf("friedman dims %dx%d", r.Friedman.N, r.Friedman.K)
	}
	out := r.Render()
	if !strings.Contains(out, "Friedman") || !strings.Contains(out, "euclidean") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestFigure4NCCcBeatsBaseline(t *testing.T) {
	o := tinyOpts()
	r := must(Figure4Ctx(context.Background(), o, nil))
	// The baseline (Lorentzian) is the last combo; NCCc/zscore the first.
	ranks := r.Friedman.AvgRanks
	if ranks[0] >= ranks[len(ranks)-1] {
		t.Errorf("nccc/zscore rank %g not better than lorentzian rank %g", ranks[0], ranks[len(ranks)-1])
	}
}

func TestFigures5Through8Run(t *testing.T) {
	o := tinyOpts()
	o.GridStride = 10
	for name, fn := range map[string]func(context.Context, Options, run.Reporter) (Ranking, error){
		"figure5": Figure5Ctx, "figure6": Figure6Ctx, "figure7": Figure7Ctx, "figure8": Figure8Ctx,
	} {
		r := must(fn(context.Background(), o, nil))
		if len(r.Names) < 4 {
			t.Errorf("%s: only %d methods", name, len(r.Names))
		}
		if out := r.Render(); !strings.Contains(out, "Critical difference") {
			t.Errorf("%s render missing CD line", name)
		}
	}
}

func TestFigure1Renders(t *testing.T) {
	out := Figure1()
	for _, n := range norm.All() {
		if !strings.Contains(out, "["+n.Name()+"]") {
			t.Errorf("Figure 1 missing %s", n.Name())
		}
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("Figure 1 plots missing series glyphs")
	}
}

func TestFigure9RuntimeOrdering(t *testing.T) {
	o := tinyOpts()
	pts := must(Figure9Ctx(context.Background(), o, nil))
	if len(pts) != 11 {
		t.Fatalf("points = %d, want 11", len(pts))
	}
	// Points are sorted by runtime; ED must not be slower than the O(m^2)
	// measures, which sit at the tail.
	var edIdx, gakIdx int = -1, -1
	for i, p := range pts {
		if p.Measure == "euclidean" {
			edIdx = i
		}
		if strings.HasPrefix(p.Measure, "gak") {
			gakIdx = i
		}
	}
	if edIdx == -1 || gakIdx == -1 {
		t.Fatal("expected measures missing")
	}
	if edIdx > gakIdx {
		t.Errorf("ED slower than GAK: positions %d vs %d", edIdx, gakIdx)
	}
	out := RenderRuntime(pts)
	if !strings.Contains(out, "euclidean") || !strings.Contains(out, "grail") {
		t.Errorf("runtime render incomplete:\n%s", out)
	}
}

func TestFigure10Convergence(t *testing.T) {
	o := tinyOpts()
	pts := must(Figure10Ctx(context.Background(), o, nil, 64, []int{8, 16, 32, 64}))
	if len(pts) != 5*4 {
		t.Fatalf("points = %d, want 20", len(pts))
	}
	for _, p := range pts {
		if p.Error < 0 || p.Error > 1 {
			t.Fatalf("error %g out of range", p.Error)
		}
	}
	out := RenderConvergence(pts)
	if !strings.Contains(out, "train") || !strings.Contains(out, "euclidean") {
		t.Errorf("convergence render incomplete:\n%s", out)
	}
}

func TestEvaluateSupervisedUsesTuning(t *testing.T) {
	o := tinyOpts()
	g := eval.Thin(eval.DTWGrid(), 8)
	c := must(EvaluateSupervisedCtx(context.Background(), o.Archive, g, nil))
	if c.Scaling != "LOOCV" {
		t.Fatalf("scaling = %s", c.Scaling)
	}
	if len(c.Accs) != len(o.Archive) {
		t.Fatalf("accs = %d", len(c.Accs))
	}
}

func TestBuildRankingNames(t *testing.T) {
	combos := []Combo{
		{Measure: "a", Scaling: "s1", Accs: []float64{0.9, 0.8}},
		{Measure: "b", Scaling: "s2", Accs: []float64{0.5, 0.4}},
	}
	r := BuildRanking("t", combos, 0.10)
	if r.Names[0] != "a/s1" || r.Names[1] != "b/s2" {
		t.Fatalf("names = %v", r.Names)
	}
	if r.Friedman.AvgRanks[0] >= r.Friedman.AvgRanks[1] {
		t.Fatal("a should rank better than b")
	}
}

func TestSBDSanity(t *testing.T) {
	// Regression guard: the shared baseline must be deterministic.
	o := tinyOpts()
	a := must(EvaluateComboCtx(context.Background(), o.Archive, sliding.SBD(), nil))
	b := must(EvaluateComboCtx(context.Background(), o.Archive, sliding.SBD(), nil))
	for i := range a.Accs {
		if a.Accs[i] != b.Accs[i] {
			t.Fatal("baseline accuracies not deterministic")
		}
	}
}

func TestExtensionSVMImprovesOverOneNN(t *testing.T) {
	o := Options{
		Archive: dataset.GenerateArchive(dataset.ArchiveOptions{
			Seed: 4, Count: 5, MaxLength: 40, MaxTrain: 12, MaxTest: 12,
		}),
	}.Defaults()
	rows := must(ExtensionSVMCtx(context.Background(), o, nil))
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.OneNNAcc < 0 || r.OneNNAcc > 1 || r.SVMAcc < 0 || r.SVMAcc > 1 {
			t.Fatalf("%s accuracies out of range: %+v", r.Kernel, r)
		}
	}
	out := RenderSVM(rows)
	if !strings.Contains(out, "sink") || !strings.Contains(out, "SVM") {
		t.Errorf("render incomplete:\n%s", out)
	}
}
