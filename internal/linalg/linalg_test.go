package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// mul returns the product a*b through MulTo.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MulTo(out, a, b)
	return out
}

// transpose returns the transpose of m through TransposeTo.
func transpose(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	m.TransposeTo(out)
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set mismatch")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must copy")
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := transpose(m)
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 0) != 1 || tr.At(1, 0) != 2 {
		t.Fatal("transpose values wrong")
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("c[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MulTo(NewMatrix(2, 3), NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got := make([]float64, 2)
	m.MulVecTo(got, []float64{1, 2, 3})
	if got[0] != 7 || got[1] != 6 {
		t.Fatalf("MulVecTo = %v", got)
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
	if v := []float64{3, 4}; math.Sqrt(Dot(v, v)) != 5 {
		t.Fatal("norm from Dot wrong")
	}
}

func randSymmetric(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestEigenSymDiagonal(t *testing.T) {
	d := fromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 2}})
	vals, vecs := EigenSym(d)
	want := []float64{3, 2, -1}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-10 {
			t.Errorf("vals[%d] = %g, want %g", i, vals[i], w)
		}
	}
	// Eigenvectors of a diagonal matrix are (signed) unit vectors.
	for c := 0; c < 3; c++ {
		var nrm float64
		for r := 0; r < 3; r++ {
			nrm += vecs.At(r, c) * vecs.At(r, c)
		}
		if math.Abs(nrm-1) > 1e-10 {
			t.Errorf("eigenvector %d not unit norm: %g", c, nrm)
		}
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := fromRows([][]float64{{2, 1}, {1, 2}})
	vals, _ := EigenSym(a)
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("vals = %v, want [3 1]", vals)
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randSymmetric(rng, n)
		vals, v := EigenSym(a)
		// Reconstruct V diag(vals) V^T and compare.
		d := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, vals[i])
		}
		rec := mul(mul(v, d), transpose(v))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(rec.At(i, j)-a.At(i, j)) > 1e-8 {
					return false
				}
			}
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEigenSymOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randSymmetric(rng, 20)
	_, v := EigenSym(a)
	vtv := mul(transpose(v), v)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(vtv.At(i, j)-want) > 1e-8 {
				t.Fatalf("V^T V [%d][%d] = %g, want %g", i, j, vtv.At(i, j), want)
			}
		}
	}
}

func TestEigenSymPSDGramMatrix(t *testing.T) {
	// Gram matrices are positive semi-definite: eigenvalues >= 0.
	rng := rand.New(rand.NewSource(12))
	b := NewMatrix(15, 7)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	g := mul(b, transpose(b)) // 15x15, rank <= 7
	vals, _ := EigenSym(g)
	for i, v := range vals {
		if v < -1e-8 {
			t.Errorf("PSD matrix has negative eigenvalue vals[%d] = %g", i, v)
		}
	}
	// Rank deficiency: eigenvalues beyond index 6 should be ~0.
	for i := 7; i < 15; i++ {
		if math.Abs(vals[i]) > 1e-8 {
			t.Errorf("expected zero eigenvalue at %d, got %g", i, vals[i])
		}
	}
}

func TestEigenSymNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EigenSym(NewMatrix(2, 3))
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity[%d][%d] = %g", i, j, id.At(i, j))
			}
		}
	}
}
