package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// mulNaive is the pre-blocking ikj triple loop, kept verbatim as the
// bitwise reference for MulTo: blocking must not change the per-element
// accumulation order.
func mulNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Shapes straddling the 128-block edges so multiple k/j blocks run.
	shapes := [][3]int{{3, 5, 4}, {17, 31, 23}, {128, 128, 128}, {130, 257, 129}, {1, 300, 1}}
	for _, s := range shapes {
		a := randMatrix(rng, s[0], s[1])
		b := randMatrix(rng, s[1], s[2])
		// Sprinkle zeros so the zero-skip path is exercised too.
		for i := 0; i < len(a.Data); i += 7 {
			a.Data[i] = 0
		}
		got := mul(a, b)
		want := mulNaive(a, b)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] && !(math.IsNaN(got.Data[i]) && math.IsNaN(want.Data[i])) {
				t.Fatalf("shape %v: blocked Mul differs at flat index %d: %v vs %v",
					s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulToOverwritesDst(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	dst := NewMatrix(2, 2)
	for i := range dst.Data {
		dst.Data[i] = 99 // stale garbage MulTo must clear
	}
	MulTo(dst, a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != want[i][j] {
				t.Fatalf("dst[%d][%d] = %g, want %g", i, j, dst.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulToShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulTo(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(3, 3))
}

func TestMulVecToMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 13, 29)
	v := make([]float64, 29)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	want := make([]float64, 13)
	for i := range want {
		for j, x := range m.Row(i) {
			want[i] += x * v[j]
		}
	}
	dst := make([]float64, 13)
	m.MulVecTo(dst, v)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecTo[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestTransposeToMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, s := range [][2]int{{1, 1}, {3, 5}, {32, 32}, {33, 31}, {100, 65}} {
		m := randMatrix(rng, s[0], s[1])
		want := NewMatrix(s[1], s[0])
		for i := 0; i < s[0]; i++ {
			for j := 0; j < s[1]; j++ {
				want.Set(j, i, m.At(i, j))
			}
		}
		got := NewMatrix(s[1], s[0])
		m.TransposeTo(got)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: Transpose differs at flat index %d", s, i)
			}
		}
	}
}

func TestSymRankKMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, rows := range []int{1, 5, 32, 33, 70} {
		a := randMatrix(rng, rows, 17)
		got := SymRankK(a)
		want := mul(a, transpose(a))
		for i := 0; i < rows; i++ {
			for j := 0; j < rows; j++ {
				if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12 {
					t.Fatalf("rows=%d: SymRankK[%d][%d] = %v, want %v",
						rows, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("rows=%d: SymRankK result not exactly symmetric at (%d, %d)", rows, i, j)
				}
			}
		}
	}
}

// TestEigenSymNonFiniteInput is the regression test for the silent-spin
// bug: the old Jacobi loop churned through all maxSweeps on NaN input and
// returned garbage. Both solvers must now short-circuit to the defined
// degenerate result — all-NaN eigenvalues with the identity basis.
func TestEigenSymNonFiniteInput(t *testing.T) {
	solvers := map[string]func(*Matrix) ([]float64, *Matrix){
		"ql":     EigenSym,
		"jacobi": EigenSymJacobi,
	}
	inputs := map[string]float64{"nan": math.NaN(), "+inf": math.Inf(1), "-inf": math.Inf(-1)}
	for sName, solve := range solvers {
		for iName, bad := range inputs {
			a := fromRows([][]float64{{1, 2, 0}, {2, 5, bad}, {0, bad, 3}})
			vals, vecs := solve(a)
			for i, v := range vals {
				if !math.IsNaN(v) {
					t.Errorf("%s/%s: vals[%d] = %g, want NaN", sName, iName, i, v)
				}
			}
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					want := 0.0
					if i == j {
						want = 1
					}
					if vecs.At(i, j) != want {
						t.Errorf("%s/%s: vectors[%d][%d] = %g, want identity",
							sName, iName, i, j, vecs.At(i, j))
					}
				}
			}
		}
	}
}

func TestEigenSymMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		a := randSymmetric(rng, n)
		qlVals, _ := EigenSym(a)
		jVals, _ := EigenSymJacobi(a)
		// Scale the comparison by the spectral magnitude.
		scale := math.Max(math.Abs(qlVals[0]), math.Abs(qlVals[n-1]))
		if scale < 1 {
			scale = 1
		}
		for i := range qlVals {
			if math.Abs(qlVals[i]-jVals[i]) > 1e-9*scale {
				t.Fatalf("trial %d n=%d: vals[%d]: ql %v vs jacobi %v", trial, n, i, qlVals[i], jVals[i])
			}
		}
	}
}

func TestEigenSymJacobiReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 12
	a := randSymmetric(rng, n)
	vals, v := EigenSymJacobi(a)
	d := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, vals[i])
	}
	rec := mul(mul(v, d), transpose(v))
	for i := range rec.Data {
		if math.Abs(rec.Data[i]-a.Data[i]) > 1e-8 {
			t.Fatalf("Jacobi reconstruction off at flat index %d: %v vs %v", i, rec.Data[i], a.Data[i])
		}
	}
}

func TestEigenSymRepeatedEigenvalues(t *testing.T) {
	// A rank-1 perturbation of the identity has a single large eigenvalue
	// and an (n-1)-fold repeated one — a classic QL stress case.
	n := 10
	a := Identity(n)
	u := make([]float64, n)
	for i := range u {
		u[i] = 1 / math.Sqrt(float64(n))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, a.At(i, j)+3*u[i]*u[j])
		}
	}
	vals, v := EigenSym(a)
	if math.Abs(vals[0]-4) > 1e-10 {
		t.Fatalf("vals[0] = %g, want 4", vals[0])
	}
	for i := 1; i < n; i++ {
		if math.Abs(vals[i]-1) > 1e-10 {
			t.Fatalf("vals[%d] = %g, want 1", i, vals[i])
		}
	}
	// Orthonormality must survive the repeated eigenspace.
	vtv := mul(transpose(v), v)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(vtv.At(i, j)-want) > 1e-10 {
				t.Fatalf("V^T V [%d][%d] = %g", i, j, vtv.At(i, j))
			}
		}
	}
}

// TestMatrixHotPathsAllocFree asserts the *To variants allocate nothing —
// the drive-by allocation audit for the embedding fit loops.
func TestMatrixHotPathsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := randMatrix(rng, 40, 40)
	b := randMatrix(rng, 40, 40)
	dst := NewMatrix(40, 40)
	tr := NewMatrix(40, 40)
	v := make([]float64, 40)
	out := make([]float64, 40)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	if n := testing.AllocsPerRun(10, func() { MulTo(dst, a, b) }); n != 0 {
		t.Errorf("MulTo allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(10, func() { a.TransposeTo(tr) }); n != 0 {
		t.Errorf("TransposeTo allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(10, func() { a.MulVecTo(out, v) }); n != 0 {
		t.Errorf("MulVecTo allocates %v per run", n)
	}
}

func benchSymmetric(n int) *Matrix {
	rng := rand.New(rand.NewSource(99))
	return randSymmetric(rng, n)
}

// BenchmarkEigenSym vs BenchmarkEigenSymJacobi at n=200 is the acceptance
// benchmark for the tridiagonal QL rewrite (recorded in BENCH_spectral.json).
func BenchmarkEigenSym(b *testing.B) {
	a := benchSymmetric(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenSym(a)
	}
}

func BenchmarkEigenSymJacobi(b *testing.B) {
	a := benchSymmetric(200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EigenSymJacobi(a)
	}
}

func BenchmarkMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := randMatrix(rng, 200, 200)
	y := randMatrix(rng, 200, 200)
	dst := NewMatrix(200, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulTo(dst, x, y)
	}
}

func BenchmarkSymRankK(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 200, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SymRankK(a)
	}
}
