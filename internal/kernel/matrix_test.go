package kernel_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/measure"
)

// randomSeries builds n standard-normal series of length m.
func randomSeries(seed int64, n, m int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	series := make([][]float64, n)
	for i := range series {
		series[i] = make([]float64, m)
		for j := range series[i] {
			series[i][j] = rng.NormFloat64()
		}
	}
	return series
}

// TestSINKSelfMatrix checks SINK's square self-dissimilarity matrix, the
// prepared path of eval.MatrixCtx, against per-pair PreparedDistance over
// independently prepared states: bitwise equal after the NaN sanitization,
// on degenerate series and across the gamma range.
func TestSINKSelfMatrix(t *testing.T) {
	// The first five rows are the degenerate shapes of the oracle corpus:
	// all-zero, constant, NaN- and Inf-poisoned, and huge-magnitude.
	series := randomSeries(25, 11, 16)
	series[0] = make([]float64, 16)
	for j := range series[1] {
		series[1][j] = 3.25
	}
	series[2][8] = math.NaN()
	series[3][0] = math.Inf(1)
	for j := range series[4] {
		series[4][j] = 1e150 * float64(j%3)
	}
	for _, gamma := range []float64{1, 7, 20} {
		s := kernel.SINK{Gamma: gamma}
		got, err := eval.MatrixCtx(context.Background(), s, series, series)
		if err != nil {
			t.Fatal(err)
		}
		for i := range series {
			pi := s.Prepare(series[i])
			for j := range series {
				want := measure.Sanitize(s.PreparedDistance(pi, s.Prepare(series[j])))
				if math.Float64bits(got[i][j]) != math.Float64bits(want) {
					t.Fatalf("gamma %g: matrix[%d][%d] = %v, per-pair %v", gamma, i, j, got[i][j], want)
				}
			}
		}
	}
}

// BenchmarkSINKMatrix times the square SINK matrix of eval.MatrixCtx over
// 200 series of length 512 (recorded in BENCH_spectral.json): one
// preparation per series, then one pooled pair kernel per cell.
func BenchmarkSINKMatrix(b *testing.B) {
	series := randomSeries(27, 200, 512)
	s := kernel.SINK{Gamma: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.MatrixCtx(context.Background(), s, series, series); err != nil {
			b.Fatal(err)
		}
	}
}
