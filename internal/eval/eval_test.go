package eval

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/norm"
	"repro/internal/sliding"
)

func toyDataset() *dataset.Dataset {
	return dataset.Generate(dataset.Config{
		Name: "Toy", Family: dataset.FamilyHarmonic, Length: 48,
		NumClasses: 2, TrainSize: 12, TestSize: 12, Seed: 1, NoiseSigma: 0.2,
	})
}

func TestMatrixShapeAndValues(t *testing.T) {
	q := [][]float64{{0, 0}, {1, 1}}
	r := [][]float64{{0, 0}, {3, 4}}
	e := Matrix(lockstep.Euclidean(), q, r)
	if len(e) != 2 || len(e[0]) != 2 {
		t.Fatalf("matrix shape %dx%d", len(e), len(e[0]))
	}
	if e[0][0] != 0 || math.Abs(e[0][1]-5) > 1e-12 {
		t.Fatalf("matrix values wrong: %v", e)
	}
}

func TestMatrixParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := make([][]float64, 50)
	for i := range series {
		s := make([]float64, 32)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		series[i] = s
	}
	m := lockstep.Manhattan()
	e := Matrix(m, series, series)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			want := m.Distance(series[i], series[j])
			if math.Abs(e[i][j]-want) > 1e-12 {
				t.Fatalf("e[%d][%d] = %g, want %g", i, j, e[i][j], want)
			}
		}
	}
}

func TestMatrixStatefulFastPathMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series := make([][]float64, 12)
	for i := range series {
		s := make([]float64, 40)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		series[i] = s
	}
	m := sliding.SBD() // implements measure.Stateful
	e := Matrix(m, series[:6], series[6:])
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := m.Distance(series[i], series[6+j])
			if math.Abs(e[i][j]-want) > 1e-9 {
				t.Fatalf("stateful e[%d][%d] = %g, want %g", i, j, e[i][j], want)
			}
		}
	}
}

// nanMeasure returns NaN for every comparison, testing sanitization.
type nanMeasure struct{}

func (nanMeasure) Name() string                    { return "nan" }
func (nanMeasure) Distance(_, _ []float64) float64 { return math.NaN() }

func TestMatrixSanitizesNaN(t *testing.T) {
	e := Matrix(nanMeasure{}, [][]float64{{1}}, [][]float64{{2}})
	if !math.IsInf(e[0][0], 1) {
		t.Fatalf("NaN not sanitized: %g", e[0][0])
	}
}

func TestOneNNPerfectAndWorst(t *testing.T) {
	// Test series 0 is nearest to train 0 (label 1): correct.
	// Test series 1 is nearest to train 1 (label 2) but has label 1: wrong.
	e := [][]float64{{0.1, 0.9}, {0.8, 0.2}}
	acc := OneNN(e, []int{1, 1}, []int{1, 2})
	if acc != 0.5 {
		t.Fatalf("acc = %g, want 0.5", acc)
	}
}

func TestOneNNTieBreaksToFirst(t *testing.T) {
	e := [][]float64{{0.5, 0.5}}
	if acc := OneNN(e, []int{1}, []int{1, 2}); acc != 1 {
		t.Fatalf("tie should keep first neighbor, acc = %g", acc)
	}
	if acc := OneNN(e, []int{2}, []int{1, 2}); acc != 0 {
		t.Fatalf("tie should keep first neighbor, acc = %g", acc)
	}
}

func TestOneNNAllInfRanksLast(t *testing.T) {
	inf := math.Inf(1)
	e := [][]float64{{inf, inf}}
	// With all-infinite distances the first neighbor is kept.
	if acc := OneNN(e, []int{1}, []int{1, 2}); acc != 1 {
		t.Fatalf("acc = %g", acc)
	}
}

func TestOneNNPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneNN([][]float64{{1}}, []int{1, 2}, []int{1})
}

func TestLeaveOneOutSkipsDiagonal(t *testing.T) {
	// Without skipping the diagonal every point would match itself.
	w := [][]float64{
		{0, 0.1, 0.9},
		{0.1, 0, 0.9},
		{0.9, 0.9, 0},
	}
	labels := []int{1, 1, 2}
	// Point 0 -> nearest (excl self) is 1 (label 1): correct.
	// Point 1 -> nearest is 0: correct. Point 2 -> nearest is 0 (label 1): wrong.
	if acc := LeaveOneOut(w, labels); math.Abs(acc-2.0/3.0) > 1e-12 {
		t.Fatalf("LOO acc = %g, want 2/3", acc)
	}
}

func TestTuneSupervisedPicksBestCandidate(t *testing.T) {
	d := toyDataset()
	// Grid with an absurd candidate (distance always 0 -> ties, first
	// neighbor) and ED; ED should win on a structured dataset.
	zero := measure.New("zero", func(_, _ []float64) float64 { return 0 })
	g := Grid{Name: "test", Candidates: []measure.Measure{zero, lockstep.Euclidean()}}
	chosen, acc, _, _ := TuneSupervisedCtx(context.Background(), g, d.Train, d.TrainLabels, nil)
	if chosen.Name() != "euclidean" {
		t.Fatalf("chose %s (acc %g), want euclidean", chosen.Name(), acc)
	}
	if acc <= 0.5 {
		t.Fatalf("LOO accuracy %g suspiciously low", acc)
	}
}

func TestTuneSupervisedTieKeepsGridOrder(t *testing.T) {
	a := measure.New("a", func(x, y []float64) float64 { return lockstep.Euclidean().Distance(x, y) })
	b := measure.New("b", func(x, y []float64) float64 { return lockstep.Euclidean().Distance(x, y) })
	d := toyDataset()
	chosen, _, _, _ := TuneSupervisedCtx(context.Background(), Grid{Name: "tie", Candidates: []measure.Measure{a, b}}, d.Train, d.TrainLabels, nil)
	if chosen.Name() != "a" {
		t.Fatalf("tie broke to %s, want first candidate", chosen.Name())
	}
}

func TestTuneSupervisedEmptyGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TuneSupervisedCtx(context.Background(), Grid{Name: "empty"}, [][]float64{{1}}, []int{1}, nil)
}

func TestNormalizeAppliesToBothSplits(t *testing.T) {
	d := toyDataset()
	nd := Normalize(d, norm.MinMax())
	for _, split := range [][][]float64{nd.Train, nd.Test} {
		for _, s := range split {
			for _, v := range s {
				if v < -1e-12 || v > 1+1e-12 {
					t.Fatalf("value %g outside [0,1] after MinMax", v)
				}
			}
		}
	}
	// Original untouched.
	if d.Train[0][0] == nd.Train[0][0] && d.Train[0][1] == nd.Train[0][1] {
		// It is possible but vanishingly unlikely that values coincide; check
		// at least one differs across the series.
		same := true
		for i := range d.Train[0] {
			if d.Train[0][i] != nd.Train[0][i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("Normalize appears to alias the original data")
		}
	}
	if Normalize(d, nil) != d {
		t.Fatal("nil normalizer must return the dataset unchanged")
	}
}

// TestNormalizeWorkerCountInvariant: Normalize maps the series over par
// workers, and each of norm.All()'s normalizers must give the same bits at
// GOMAXPROCS 1 and 4, equal to calling it on each series in turn, and
// leave the input dataset untouched. The dataset holds a constant series
// and NaN, ±Inf and -0.
func TestNormalizeWorkerCountInvariant(t *testing.T) {
	d := dataset.Generate(dataset.Config{
		Name: "Norm", Family: dataset.FamilyHarmonic, Length: 37,
		NumClasses: 3, TrainSize: 32, TestSize: 16, Seed: 5, NoiseSigma: 0.3,
	})
	d.Train[1] = make([]float64, len(d.Train[1]))
	d.Train[2][3] = math.NaN()
	d.Test[0][0], d.Test[0][1], d.Test[0][2] = math.Inf(1), math.Inf(-1), math.Copysign(0, -1)
	in := d.Clone()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range norm.All() {
		var outs [2]*dataset.Dataset
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			outs[i] = Normalize(d, n)
		}
		for si, split := range []struct{ in, one, four [][]float64 }{
			{d.Train, outs[0].Train, outs[1].Train},
			{d.Test, outs[0].Test, outs[1].Test},
		} {
			for i, x := range split.in {
				want := n.Normalize(x)
				if !bitsEqual(split.one[i], want) || !bitsEqual(split.four[i], want) {
					t.Fatalf("%s: split %d series %d differs across worker counts", n.Name(), si, i)
				}
			}
		}
		if !sameDataset(d, in) {
			t.Fatalf("%s: Normalize changed its input", n.Name())
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameDataset(a, b *dataset.Dataset) bool {
	if len(a.Train) != len(b.Train) || len(a.Test) != len(b.Test) {
		return false
	}
	for i := range a.Train {
		if !bitsEqual(a.Train[i], b.Train[i]) || a.TrainLabels[i] != b.TrainLabels[i] {
			return false
		}
	}
	for i := range a.Test {
		if !bitsEqual(a.Test[i], b.Test[i]) || a.TestLabels[i] != b.TestLabels[i] {
			return false
		}
	}
	return true
}

func TestTestAccuracyBeatsChanceOnStructuredData(t *testing.T) {
	d := toyDataset()
	acc, err := TestAccuracyCtx(context.Background(), lockstep.Euclidean(), d, norm.ZScore())
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 0.5 {
		t.Fatalf("ED accuracy %g on a 2-class harmonic dataset, want > 0.5", acc)
	}
}

func TestSupervisedAccuracyRuns(t *testing.T) {
	d := toyDataset()
	g := Thin(DTWGrid(), 8)
	acc, chosen, err := SupervisedAccuracyCtx(context.Background(), g, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %g out of range", acc)
	}
	if chosen == nil {
		t.Fatal("no measure chosen")
	}
}

func TestGridSizesMatchTable4(t *testing.T) {
	cases := []struct {
		grid Grid
		want int
	}{
		{MSMGrid(), 10},
		{DTWGrid(), 22},
		{EDRGrid(), 20},
		{LCSSGrid(), 40},
		{TWEGrid(), 30},
		{SwaleGrid(), 15},
		{ERPGrid(), 1},
		{MinkowskiGrid(), 20},
		{KDTWGrid(), 16},
		{GAKGrid(), 26},
		{SINKGrid(), 20},
		{RBFGrid(), 17},
	}
	for _, c := range cases {
		if len(c.grid.Candidates) != c.want {
			t.Errorf("grid %s has %d candidates, want %d", c.grid.Name, len(c.grid.Candidates), c.want)
		}
	}
}

func TestGridCandidateNamesUnique(t *testing.T) {
	for _, g := range append(ElasticGrids(), KernelGrids()...) {
		seen := map[string]bool{}
		for _, c := range g.Candidates {
			if seen[c.Name()] {
				t.Errorf("grid %s: duplicate candidate %s", g.Name, c.Name())
			}
			seen[c.Name()] = true
		}
	}
}

func TestThin(t *testing.T) {
	g := DTWGrid()
	th := Thin(g, 5)
	if len(th.Candidates) != (len(g.Candidates)+4)/5 {
		t.Fatalf("thinned size %d", len(th.Candidates))
	}
	if th.Candidates[0].Name() != g.Candidates[0].Name() {
		t.Fatal("thinning must keep the first candidate")
	}
	if same := Thin(g, 1); len(same.Candidates) != len(g.Candidates) {
		t.Fatal("stride 1 must be identity")
	}
}

func TestDTWGridContainsUnconstrained(t *testing.T) {
	g := DTWGrid()
	last := g.Candidates[len(g.Candidates)-1]
	if last.Name() != (elastic.DTW{DeltaPercent: 100}).Name() {
		t.Fatalf("last DTW candidate = %s, want the unconstrained window", last.Name())
	}
}

func TestMatrixSymmetricTriangleMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	series := make([][]float64, 30)
	for i := range series {
		s := make([]float64, 40)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		series[i] = s
	}
	sym := elastic.DTW{DeltaPercent: 10}
	// The Func wrapper hides the Symmetric marker, forcing the full scan.
	full := Matrix(measure.New("dtw-opaque", sym.Distance), series, series)
	tri := Matrix(sym, series, series)
	for i := range series {
		for j := range series {
			if tri[i][j] != full[i][j] {
				t.Fatalf("triangle[%d][%d] = %g, full = %g", i, j, tri[i][j], full[i][j])
			}
		}
	}
}

func TestNeighborsAndTies(t *testing.T) {
	inf := math.Inf(1)
	e := [][]float64{
		{0.5, 0.5, 0.4}, // unique minimum at 2
		{0.3, 0.3, 0.9}, // tie: lowest index wins
		{inf, inf, inf}, // all infinite: first kept
		{},              // empty row: no neighbor
	}
	want := []int{2, 0, 0, -1}
	got := Neighbors(e)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLeaveOneOutNeighborsSkipsDiagonal(t *testing.T) {
	w := [][]float64{
		{0, 0.1, 0.9},
		{0.1, 0, 0.9},
		{0.9, 0.9, 0},
	}
	want := []int{1, 0, 0}
	got := LeaveOneOutNeighbors(w)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LOONeighbors[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestAccuracyFromNeighborsCountsMissingAsWrong(t *testing.T) {
	if acc := AccuracyFromNeighbors([]int{0, -1}, []int{1, 1}, []int{1}); acc != 0.5 {
		t.Fatalf("acc = %g, want 0.5", acc)
	}
	if acc := AccuracyFromNeighbors(nil, nil, nil); acc != 0 {
		t.Fatalf("empty acc = %g, want 0", acc)
	}
}

func TestSameSeries(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	if !sameSeries(a, a) {
		t.Fatal("identical slices must be detected")
	}
	b := [][]float64{{1, 2}, {3, 4}}
	if sameSeries(a, b) {
		t.Fatal("distinct backing arrays must not be detected as same")
	}
	if sameSeries(a, a[:1]) {
		t.Fatal("different lengths are not the same")
	}
}

// TestMatrixPreparedPathMatchesDistance pins the Stateful path of
// MatrixCtx: SINK's square matrix over prepared states must equal, bit
// for bit and after the shared NaN sanitization, the matrix of opaque
// Distance calls on the same series.
func TestMatrixPreparedPathMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	series := make([][]float64, 23)
	for i := range series {
		s := make([]float64, 31)
		for j := range s {
			s[j] = rng.NormFloat64()
		}
		series[i] = s
	}
	// Degenerate rows exercise the sanitize pass.
	series[0] = make([]float64, 31)
	series[1][5] = math.NaN()
	series[2][0] = math.Inf(1)
	s := kernel.SINK{Gamma: 5}
	// The Func wrapper hides Stateful, forcing the plain Distance path; the
	// direct call prepares each series once.
	generic := Matrix(measure.New("sink-opaque", s.Distance), series, series)
	prepared := Matrix(s, series, series)
	for i := range series {
		for j := range series {
			if prepared[i][j] != generic[i][j] {
				t.Fatalf("prepared[%d][%d] = %g, generic = %g", i, j, prepared[i][j], generic[i][j])
			}
		}
	}
	// A rectangular (test-by-train) call prepares queries and references
	// separately and must match too.
	queries := series[:7]
	rect := Matrix(s, queries, series)
	for i := range queries {
		for j := range series {
			if rect[i][j] != generic[i][j] {
				t.Fatalf("rect[%d][%d] = %g, generic = %g", i, j, rect[i][j], generic[i][j])
			}
		}
	}
}
