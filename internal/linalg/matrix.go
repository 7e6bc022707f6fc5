// Package linalg provides the small dense linear-algebra kernel needed by
// the embedding measures: a row-major matrix type, basic products, and a
// Householder + QL eigensolver for symmetric matrices (used for the
// Nyström approximation in GRAIL and the landmark MDS in SPIRAL), with
// cyclic Jacobi kept as its cross-check.
package linalg

import (
	"fmt"

	"repro/internal/par"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// transposeTile is the square tile edge for the blocked transpose: 32x32
// float64 tiles (8 KiB source + 8 KiB destination) fit comfortably in L1,
// so both the row-major reads and the column-major writes stay on cached
// lines instead of striding a full row apart.
const transposeTile = 32

// TransposeTo writes the transpose of m into dst, which must already be
// shaped Cols x Rows; it allows reusing a destination across calls in hot
// loops. The copy walks 32x32 tiles so neither side thrashes the cache.
func (m *Matrix) TransposeTo(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("linalg: TransposeTo shape mismatch: dst %dx%d, want %dx%d",
			dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	for ib := 0; ib < m.Rows; ib += transposeTile {
		iMax := ib + transposeTile
		if iMax > m.Rows {
			iMax = m.Rows
		}
		for jb := 0; jb < m.Cols; jb += transposeTile {
			jMax := jb + transposeTile
			if jMax > m.Cols {
				jMax = m.Cols
			}
			for i := ib; i < iMax; i++ {
				row := m.Data[i*m.Cols:]
				for j := jb; j < jMax; j++ {
					dst.Data[j*dst.Cols+i] = row[j]
				}
			}
		}
	}
}

// mulBlockK and mulBlockJ are the cache-block edges of the ikj product:
// a kb x jb panel of b (128x128 float64 = 128 KiB upper bound, resident in
// L2) is streamed against a column strip of a, so each b element loaded
// from memory is reused across all rows of a instead of once.
const (
	mulBlockK = 128
	mulBlockJ = 128
)

// MulTo computes the matrix product a*b into dst (shaped a.Rows x b.Cols),
// overwriting it. The kernel is the classic ikj accumulation with cache
// blocking over k and j; for every output element the k-contributions are
// still added in increasing-k order (blocks are visited in order, and k
// runs forward inside each block), so the result is bitwise identical to
// the unblocked triple loop.
func MulTo(dst, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulTo shape mismatch: dst %dx%d, want %dx%d",
			dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for jb := 0; jb < b.Cols; jb += mulBlockJ {
		jMax := jb + mulBlockJ
		if jMax > b.Cols {
			jMax = b.Cols
		}
		for kb := 0; kb < a.Cols; kb += mulBlockK {
			kMax := kb + mulBlockK
			if kMax > a.Cols {
				kMax = a.Cols
			}
			for i := 0; i < a.Rows; i++ {
				arow := a.Data[i*a.Cols:]
				orow := dst.Data[i*dst.Cols:]
				for k := kb; k < kMax; k++ {
					av := arow[k]
					if av == 0 {
						continue
					}
					brow := b.Data[k*b.Cols:]
					for j := jb; j < jMax; j++ {
						orow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// MulVecTo computes m*v into dst (len m.Rows), overwriting it, so repeated
// projections can reuse one output buffer.
func (m *Matrix) MulVecTo(dst, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %dx%d * %d", m.Rows, m.Cols, len(v)))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecTo dst length %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		dst[i] = s
	}
}

// symRankKTile is the tile edge for the parallel symmetric rank-k update.
// Tiles above the diagonal are independent units of work; 32 rows of a
// typical landmark matrix keep each unit large enough to amortize dispatch.
const symRankKTile = 32

// SymRankK returns the Gram-style product a * a^T (a.Rows x a.Rows,
// symmetric). Only the upper triangle is computed — in parallel,
// tile-by-tile — and mirrored; entry (i, j) is Dot(row i, row j), the same
// accumulation order as the serial product, so results do not depend on
// the worker count.
func SymRankK(a *Matrix) *Matrix {
	n := a.Rows
	out := NewMatrix(n, n)
	if n == 0 {
		return out
	}
	nt := (n + symRankKTile - 1) / symRankKTile
	// Enumerate upper-triangle tiles (ti <= tj) as a flat work list.
	type tilePair struct{ ti, tj int }
	tiles := make([]tilePair, 0, nt*(nt+1)/2)
	for ti := 0; ti < nt; ti++ {
		for tj := ti; tj < nt; tj++ {
			tiles = append(tiles, tilePair{ti, tj})
		}
	}
	par.For(len(tiles), par.Workers(len(tiles)), func(t int) {
		ti, tj := tiles[t].ti, tiles[t].tj
		iMax := (ti + 1) * symRankKTile
		if iMax > n {
			iMax = n
		}
		jMax := (tj + 1) * symRankKTile
		if jMax > n {
			jMax = n
		}
		for i := ti * symRankKTile; i < iMax; i++ {
			ai := a.Row(i)
			jStart := tj * symRankKTile
			if ti == tj {
				jStart = i
			}
			for j := jStart; j < jMax; j++ {
				v := Dot(ai, a.Row(j))
				out.Data[i*n+j] = v
				// The mirrored element lives in a strictly-lower tile no
				// worker owns, so the write is race-free.
				out.Data[j*n+i] = v
			}
		}
	})
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}
