package embedding

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/elastic"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

// The engine-backed fits must reproduce the pre-engine serial fits. Raw
// representations are not comparable — the QL and Jacobi eigensolvers are
// free to pick different orthonormal bases inside repeated eigenspaces —
// but the pairwise Euclidean distances between representations are
// invariant under exactly that ambiguity (the embedding inner product is
// e_x U Λ⁻¹ Uᵀ e_y, unchanged by per-eigenspace rotations), so the
// property tests compare representation-distance matrices within the
// TolFFT tier of DESIGN.md §10.

// grailNaiveFit replicates GRAIL.Fit serially: per-pair landmark Gram
// over prepared states (unit diagonal, upper triangle mirrored), the
// cyclic Jacobi eigensolver, same spectrum filter. It returns a transform
// closure over the fitted basis.
func grailNaiveFit(gamma float64, dim int, seed int64, train [][]float64) func([]float64) []float64 {
	return grailSerialFit(gamma, dim, seed, train, linalg.EigenSymJacobi)
}

// grailSerialFit is grailNaiveFit with the eigensolver as a parameter.
func grailSerialFit(gamma float64, dim int, seed int64, train [][]float64, eigen func(*linalg.Matrix) ([]float64, *linalg.Matrix)) func([]float64) []float64 {
	sink := kernel.SINK{Gamma: gamma}
	landmarks := sampleLandmarks(train, dim, seed)
	d := len(landmarks)
	prep := make([]any, d)
	for i, l := range landmarks {
		prep[i] = sink.Prepare(l)
	}
	w := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		w.Set(i, i, 1)
		for j := i + 1; j < d; j++ {
			k := 1 - sink.PreparedDistance(prep[i], prep[j])
			w.Set(i, j, k)
			w.Set(j, i, k)
		}
	}
	vals, vecs := eigen(w)
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
	}
}

// spiralNaiveFit replicates SPIRAL.Fit with the serial DTW landmark matrix
// and the Jacobi eigensolver.
func spiralNaiveFit(dim int, seed int64, train [][]float64) func([]float64) []float64 {
	landmarks := sampleLandmarks(train, dim, seed)
	d := len(landmarks)
	sq := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := elastic.UnbandedDTW(landmarks[i], landmarks[j])
			sq.Set(i, j, v)
			sq.Set(j, i, v)
		}
	}
	colMean := make([]float64, d)
	var total float64
	for j := 0; j < d; j++ {
		var cm float64
		for i := 0; i < d; i++ {
			cm += sq.At(i, j)
		}
		cm /= float64(d)
		colMean[j] = cm
		total += cm
	}
	total /= float64(d)
	b := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			b.Set(i, j, -0.5*(sq.At(i, j)-colMean[i]-colMean[j]+total))
		}
	}
	vals, vecs := linalg.EigenSymJacobi(b)
	proj := linalg.NewMatrix(d, d)
	for j := 0; j < d; j++ {
		if !(vals[j] > 1e-10) {
			continue
		}
		inv := 1 / math.Sqrt(vals[j])
		for r := 0; r < d; r++ {
			proj.Set(r, j, vecs.At(r, j)*inv)
		}
	}
	return func(x []float64) []float64 {
		delta := make([]float64, d)
		for i, l := range landmarks {
			delta[i] = elastic.UnbandedDTW(x, l) - colMean[i]
		}
		z := make([]float64, proj.Cols)
		for r, dv := range delta {
			if dv == 0 {
				continue
			}
			row := proj.Row(r)
			for c, pv := range row {
				z[c] += -0.5 * dv * pv
			}
		}
		return z
	}
}

// repDistances maps every query through both transforms and returns the
// two pairwise Euclidean distance matrices.
func repDistances(queries [][]float64, a, b func([]float64) []float64) (da, db [][]float64) {
	ra := make([][]float64, len(queries))
	rb := make([][]float64, len(queries))
	for i, q := range queries {
		ra[i] = a(q)
		rb[i] = b(q)
	}
	da = make([][]float64, len(queries))
	db = make([][]float64, len(queries))
	for i := range queries {
		da[i] = make([]float64, len(queries))
		db[i] = make([]float64, len(queries))
		for j := range queries {
			da[i][j] = euclidean(ra[i], ra[j])
			db[i][j] = euclidean(rb[i], rb[j])
		}
	}
	return da, db
}

// tolFFT mirrors the FFT-tier tolerance of DESIGN.md §10 (oracle.TolFFT).
const tolFFT = 1e-6

func agreeTol(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) == math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestGRAILEngineFitMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	train := trainSet(rng, 24, 40)
	queries := trainSet(rng, 10, 40)
	// Constant and zero series exercise the degenerate kernel rows.
	queries[0] = make([]float64, 40)
	for j := range queries[1] {
		queries[1][j] = 2.5
	}
	g := &GRAIL{Gamma: 5, Dim: 12, Seed: 3}
	g.Fit(train)
	naive := grailNaiveFit(5, 12, 3, train)
	da, db := repDistances(queries, g.Transform, naive)
	for i := range da {
		for j := range da[i] {
			if !agreeTol(da[i][j], db[i][j], tolFFT) {
				t.Fatalf("GRAIL rep distance [%d][%d]: engine %v, naive %v", i, j, da[i][j], db[i][j])
			}
		}
	}
}

// TestGRAILFitBitwiseSerialGram pins GRAIL's parallel landmark Gram fill:
// with the same eigensolver, Fit must reproduce the serial construction
// (unit diagonal, upper triangle from the prepared pair kernel, mirrored)
// bit for bit, degenerate landmarks included.
func TestGRAILFitBitwiseSerialGram(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	train := trainSet(rng, 30, 33)
	train[4] = make([]float64, 33)
	for j := range train[7] {
		train[7][j] = -1.5
	}
	train[9][3] = math.NaN()
	queries := append(trainSet(rng, 6, 33), train[4], train[7], train[9])
	for _, dim := range []int{1, 12, 30} {
		g := &GRAIL{Gamma: 3, Dim: dim, Seed: 8}
		g.Fit(train)
		serial := grailSerialFit(3, dim, 8, train, linalg.EigenSym)
		for qi, q := range queries {
			got, want := g.Transform(q), serial(q)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("dim %d query %d: rep[%d] = %v, serial Gram %v", dim, qi, c, got[c], want[c])
				}
			}
		}
	}
}

// sameBits reports whether two vectors hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
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

// TestGRAILFitTransformBitwise pins the fused fit: FitTransformCtx must
// return bitwise Transform's representation of every training series and
// leave bitwise FitCtx's fitted state (basis, and landmark states that
// embed new queries identically), with sampled landmarks at n = 10, 64, 100
// and 256 (Dim above n included, degenerate series among the landmarks
// candidates) and with k-Shape landmarks.
func TestGRAILFitTransformBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, c := range []struct {
		n, dim int
		kshape bool
	}{{10, 64, false}, {64, 64, false}, {100, 12, false}, {256, 64, false}, {40, 6, true}} {
		train := trainSet(rng, c.n, 48)
		train[1] = make([]float64, 48)
		for j := range train[2] {
			train[2][j] = -1.5
		}
		train[3][5] = math.NaN()
		queries := append(trainSet(rng, 4, 48), train[1], train[3])
		fused := &GRAIL{Gamma: 3, Dim: c.dim, Seed: 8, KShapeLandmarks: c.kshape}
		reps, err := fused.FitTransformCtx(context.Background(), train)
		if err != nil {
			t.Fatal(err)
		}
		sep := &GRAIL{Gamma: 3, Dim: c.dim, Seed: 8, KShapeLandmarks: c.kshape}
		if err := sep.FitCtx(context.Background(), train); err != nil {
			t.Fatal(err)
		}
		if len(reps) != c.n {
			t.Fatalf("n %d: %d representations", c.n, len(reps))
		}
		for i, x := range train {
			if want := sep.Transform(x); !sameBits(reps[i], want) {
				t.Fatalf("n %d dim %d k-Shape %v: rep %d = %v, FitCtx+Transform %v", c.n, c.dim, c.kshape, i, reps[i], want)
			}
		}
		if !sameBits(fused.basis.Data, sep.basis.Data) {
			t.Fatalf("n %d dim %d k-Shape %v: fused basis differs from FitCtx's", c.n, c.dim, c.kshape)
		}
		for qi, q := range queries {
			if got, want := fused.Transform(q), sep.Transform(q); !sameBits(got, want) {
				t.Fatalf("n %d dim %d k-Shape %v: query %d = %v, FitCtx's %v", c.n, c.dim, c.kshape, qi, got, want)
			}
		}
	}
}

func TestSPIRALEngineFitMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	train := trainSet(rng, 20, 36)
	queries := trainSet(rng, 8, 36)
	s := &SPIRAL{Dim: 10, Seed: 4}
	s.Fit(train)
	naive := spiralNaiveFit(10, 4, train)
	da, db := repDistances(queries, s.Transform, naive)
	for i := range da {
		for j := range da[i] {
			if !agreeTol(da[i][j], db[i][j], tolFFT) {
				t.Fatalf("SPIRAL rep distance [%d][%d]: engine %v, naive %v", i, j, da[i][j], db[i][j])
			}
		}
	}
}

// TestFitDegenerateTrainingSeries is the embedding-level regression for
// the non-finite eigensolver guard: training sets poisoned with NaN/Inf
// series must produce defined fits — finite basis/projection data — not
// NaN-soaked rotations (GRAIL) or a silently-spinning eigensolver
// (SPIRAL's centered matrix goes all-NaN).
func TestFitDegenerateTrainingSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	train := trainSet(rng, 12, 24)
	train[3][7] = math.NaN()
	train[5][0] = math.Inf(1)

	g := &GRAIL{Gamma: 5, Dim: 12, Seed: 1}
	g.Fit(train)
	for i, v := range g.basis.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("GRAIL basis[%d] = %v after degenerate fit", i, v)
		}
	}
	z := g.Transform(train[0])
	for i, v := range z {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("GRAIL transform[%d] = %v after degenerate fit", i, v)
		}
	}

	s := &SPIRAL{Dim: 12, Seed: 1}
	s.Fit(train)
	for i, v := range s.proj.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("SPIRAL proj[%d] = %v after degenerate fit", i, v)
		}
	}
}

// TestEmbeddingOneNNAccuracyMatchesNaive checks the end metric: 1-NN
// classification decisions from engine-fit representations equal the
// naive fit's on separable data (representation distances agree to the
// FFT tier, so neighbors only could differ on near-exact ties).
func TestEmbeddingOneNNAccuracyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	train := trainSet(rng, 24, 40)
	test := trainSet(rng, 12, 40)
	g := &GRAIL{Gamma: 5, Dim: 12, Seed: 9}
	g.Fit(train)
	naive := grailNaiveFit(5, 12, 9, train)

	nearest := func(tr func([]float64) []float64) []int {
		reps := make([][]float64, len(train))
		for i, x := range train {
			reps[i] = tr(x)
		}
		out := make([]int, len(test))
		for i, q := range test {
			zq := tr(q)
			best, bestD := -1, math.Inf(1)
			for j, r := range reps {
				if d := euclidean(zq, r); d < bestD {
					best, bestD = j, d
				}
			}
			out[i] = best
		}
		return out
	}
	ne := nearest(g.Transform)
	nn := nearest(naive)
	for i := range ne {
		if ne[i] != nn[i] {
			t.Fatalf("query %d: engine neighbor %d, naive neighbor %d", i, ne[i], nn[i])
		}
	}
}

func TestDTWScratchReuseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 30; trial++ {
		x := make([]float64, 1+rng.Intn(40))
		y := make([]float64, 1+rng.Intn(40))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		// The driver's pooled rows arrive dirty from the previous trial's
		// shapes; the recursion must not see them.
		want := elastic.UnbandedDTW(x, y)
		elastic.UnbandedDTW(y[:len(y)/2+1], x)
		got := elastic.UnbandedDTW(x, y)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("trial %d: pooled DTW %v, first call %v", trial, got, want)
		}
	}
}
