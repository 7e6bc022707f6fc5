package repro

import (
	"math"
	"math/rand"
	"testing"
)

// Facade tests for the extension surface: clustering, subsequence search,
// indexing, multivariate, uncertain, and multiple-comparison corrections.

func TestFacadeKShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var series [][]float64
	var truth []int
	for i := 0; i < 40; i++ {
		c := i % 2
		freq := float64(c + 1)
		shift := rng.Intn(48)
		s := make([]float64, 48)
		for j := range s {
			s[j] = math.Sin(2 * math.Pi * freq * float64((j+shift)%48) / 48)
		}
		series = append(series, ZNormalize(s))
		truth = append(truth, c)
	}
	res := KShapeRestarts(series, KShapeConfig{K: 2, Seed: 3}, 3)
	if ari := AdjustedRandIndex(res.Labels, truth); ari < 0.9 {
		t.Fatalf("k-Shape ARI = %g", ari)
	}
	if RandIndex(res.Labels, res.Labels) != 1 {
		t.Fatal("RandIndex self-comparison must be 1")
	}
}

func TestFacadeSubsequenceSearch(t *testing.T) {
	n := 300
	series := make([]float64, n)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / 40)
	}
	q := series[80:120]
	profile := DistanceProfile(series, q)
	if len(profile) != n-40+1 {
		t.Fatalf("profile length %d", len(profile))
	}
	if profile[80] > 1e-6 {
		t.Fatalf("exact-match profile value %g", profile[80])
	}
	matches := TopKMatches(series, q, 2)
	if len(matches) != 2 || matches[0].Distance > 1e-6 {
		t.Fatalf("matches = %+v", matches)
	}
	mp, idx := MatrixProfile(series, 40)
	if len(mp) != len(idx) || len(mp) != n-40+1 {
		t.Fatalf("matrix profile shapes %d/%d", len(mp), len(idx))
	}
	i, j, _ := Motif(series, 40)
	if i == j {
		t.Fatal("motif pair must be distinct")
	}
	if off, _ := Discord(series, 40); off < 0 || off >= len(mp) {
		t.Fatalf("discord offset %d out of range", off)
	}
}

// TestFacadeSubsequenceNaN pins NaN confinement in subsequence search: a
// NaN sample makes only the windows that contain it NaN, so the exact
// match elsewhere is still found, no reported match carries a NaN
// distance, and a query holding a NaN matches nothing.
func TestFacadeSubsequenceNaN(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		x[i] = math.Sin(float64(i) / 3)
	}
	x[10] = math.NaN()
	const w = 8
	q := append([]float64(nil), x[40:40+w]...)
	prof := DistanceProfile(x, q)
	if len(prof) != len(x)-w+1 {
		t.Fatalf("profile length %d", len(prof))
	}
	for i, d := range prof {
		if holdsNaN := i <= 10 && 10 < i+w; math.IsNaN(d) != holdsNaN {
			t.Errorf("window %d: distance %v, want NaN only for the windows holding x[10]", i, d)
		}
	}
	matches := TopKMatches(x, q, 3)
	if len(matches) != 3 || matches[0].Offset != 40 {
		t.Fatalf("matches = %+v, want 3 led by the exact match at 40", matches)
	}
	for _, m := range matches {
		if math.IsNaN(m.Distance) {
			t.Errorf("match %+v has a NaN distance", m)
		}
	}
	nanQuery := append([]float64(nil), q...)
	nanQuery[3] = math.NaN()
	if got := TopKMatches(x, nanQuery, 3); len(got) != 0 {
		t.Errorf("NaN query matched %+v, want nothing", got)
	}
}

func TestFacadeIndexing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	refs := make([][]float64, 30)
	for i := range refs {
		r := make([]float64, 32)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		refs[i] = r
	}
	q := make([]float64, 32)
	for j := range q {
		q[j] = rng.NormFloat64()
	}
	ix := NewEDIndex(refs, 8)
	best, d, stats := ix.NN(q)
	// Brute-force verification.
	ed := Euclidean()
	want, wantD := -1, math.Inf(1)
	for i, r := range refs {
		if v := ed.Distance(q, r); v < wantD {
			want, wantD = i, v
		}
	}
	if best != want || math.Abs(d-wantD) > 1e-9 {
		t.Fatalf("EDIndex NN (%d, %g) != brute (%d, %g)", best, d, want, wantD)
	}
	if stats.Exact < 1 {
		t.Fatal("no exact computations recorded")
	}

	tree := NewVPTree(refs, MSM(0.5), 1)
	tBest, tD, _ := tree.NN(q)
	msm := MSM(0.5)
	want, wantD = -1, math.Inf(1)
	for i, r := range refs {
		if v := msm.Distance(q, r); v < wantD {
			want, wantD = i, v
		}
	}
	if tBest != want || math.Abs(tD-wantD) > 1e-9 {
		t.Fatalf("VPTree NN (%d, %g) != brute (%d, %g)", tBest, tD, want, wantD)
	}

	// PAA and the lower bounds.
	x := ZNormalize(refs[0])
	y := ZNormalize(refs[1])
	if lb := LBPAA(PAA(x, 8), PAA(y, 8), 32); lb > ed.Distance(x, y)+1e-9 {
		t.Fatal("LBPAA exceeded ED")
	}
	s := NewSAX(8, 6)
	if lb := s.MinDist(s.Symbolize(x), s.Symbolize(y), 32); lb > ed.Distance(x, y)+1e-9 {
		t.Fatal("SAX MINDIST exceeded ED")
	}
	if lb := DFTLowerBound(DFTCoefficients(x, 4), DFTCoefficients(y, 4)); lb > ed.Distance(x, y)+1e-9 {
		t.Fatal("DFT bound exceeded ED")
	}
}

func TestFacadeMultivariate(t *testing.T) {
	x := MVSeries{{0, 0}, {1, 1}, {0, 0}}
	y := MVSeries{{0, 0}, {1, 1}, {0, 0}}
	if d := MVEuclidean().Distance(x, y); d != 0 {
		t.Fatalf("MV ED identical = %g", d)
	}
	if d := MVDTWDependent(100).Distance(x, y); d != 0 {
		t.Fatalf("MV DTW-D identical = %g", d)
	}
	if d := MVDTWIndependent(100).Distance(x, y); d != 0 {
		t.Fatalf("MV DTW-I identical = %g", d)
	}
	lifted := MVIndependent(Manhattan())
	z := MVSeries{{1, 0}, {1, 0}, {1, 0}}
	if d := lifted.Distance(x, z); d <= 0 {
		t.Fatalf("lifted distance = %g", d)
	}
	acc := MVOneNN(MVEuclidean(), []MVSeries{x, z}, []int{1, 2}, []MVSeries{y}, []int{1})
	if acc != 1 {
		t.Fatalf("MV 1-NN accuracy = %g", acc)
	}
}

func TestFacadeUncertain(t *testing.T) {
	x := UncertainFromCertain([]float64{0, 0})
	y := UncertainSeries{Values: []float64{3, 4}, Stddev: []float64{0, 0}}
	if d := UncertainExpectedED(x, y); math.Abs(d-5) > 1e-12 {
		t.Fatalf("certain expected ED = %g, want 5", d)
	}
	noisy := UncertainSeries{Values: []float64{3, 4}, Stddev: []float64{2, 2}}
	if UncertainExpectedED(x, noisy) <= 5 {
		t.Fatal("uncertainty must increase the expected distance")
	}
	if UncertainDUST(x, noisy, 1e-3) >= UncertainDUST(x, y, 1e-3) {
		t.Fatal("DUST must down-weight uncertain gaps")
	}
	p := UncertainProbCloser(x, y, noisy)
	if p < 0 || p > 1 {
		t.Fatalf("probability %g out of range", p)
	}
	acc := UncertainOneNN([]UncertainSeries{y, noisy}, []int{1, 2}, []UncertainSeries{x}, []int{1})
	if acc != 1 {
		t.Fatalf("uncertain 1-NN accuracy = %g", acc)
	}
}

func TestFacadeCorrections(t *testing.T) {
	p := []float64{0.001, 0.2, 0.04}
	holm := HolmCorrection(p, 0.05)
	bonf := BonferroniCorrection(p, 0.05)
	if !holm[0] || holm[1] {
		t.Fatalf("Holm = %v", holm)
	}
	for i := range p {
		if bonf[i] && !holm[i] {
			t.Fatal("Bonferroni rejected where Holm did not")
		}
	}
}

func TestFacadeElasticExtensions(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = x[i] + 5 // constant offset
	}
	if d := DDTW(100).Distance(x, y); d > 1e-9 {
		t.Fatalf("DDTW of offset ramps = %g", d)
	}
	if d := WDTW(0.05).Distance(x, x); d != 0 {
		t.Fatalf("WDTW identity = %g", d)
	}
	cid := CIDMeasure(Euclidean())
	if d := cid.Distance(x, x); d != 0 {
		t.Fatalf("CID identity = %g", d)
	}
	refs := [][]float64{y, x}
	best, _, _ := NNSearchDTW(x, refs, 10)
	if best != 1 {
		t.Fatalf("NNSearchDTW best = %d, want 1 (exact copy)", best)
	}
}

func TestFacadeISAX(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := NewISAX(32, 8, 4)
	refs := make([][]float64, 60)
	for i := range refs {
		r := make([]float64, 32)
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		refs[i] = ZNormalize(r)
		ix.Insert(refs[i])
	}
	q := refs[7]
	best, dist, _ := ix.NN(q)
	if best != 7 || dist > 1e-9 {
		t.Fatalf("iSAX exact NN of an indexed series = (%d, %g), want (7, 0)", best, dist)
	}
	aBest, _ := ix.ApproxNN(q)
	if aBest == -1 {
		t.Fatal("approximate search returned nothing")
	}
	if ix.Size() != 60 {
		t.Fatalf("size = %d", ix.Size())
	}
}

func TestNNSearchDTWCorrectAndPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// References: clusters around two prototypes so pruning has traction.
	proto1 := make([]float64, 64)
	proto2 := make([]float64, 64)
	for i := range proto1 {
		proto1[i] = math.Sin(2 * math.Pi * float64(i) / 16)
		proto2[i] = math.Sin(2*math.Pi*float64(i)/16+math.Pi) * 3
	}
	refs := make([][]float64, 40)
	for i := range refs {
		base := proto1
		if i%2 == 1 {
			base = proto2
		}
		r := make([]float64, 64)
		for j := range r {
			r[j] = base[j] + 0.1*rng.NormFloat64()
		}
		refs[i] = r
	}
	query := make([]float64, 64)
	for j := range query {
		query[j] = proto1[j] + 0.05*rng.NormFloat64()
	}
	best, bestDist, pruned := NNSearchDTW(query, refs, 10)
	// Verify against exhaustive search.
	dtw := DTW(10)
	wantBest, wantDist := -1, 0.0
	for i, r := range refs {
		d := dtw.Distance(query, r)
		if wantBest == -1 || d < wantDist {
			wantBest, wantDist = i, d
		}
	}
	if best != wantBest || math.Abs(bestDist-wantDist) > 1e-9 {
		t.Fatalf("NN search found %d (%g), want %d (%g)", best, bestDist, wantBest, wantDist)
	}
	if pruned == 0 {
		t.Error("expected some pruning on clustered references")
	}
}
