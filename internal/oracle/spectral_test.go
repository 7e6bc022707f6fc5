package oracle

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

// The spectral oracle: the implicit-shift QL eigensolver cross-checked
// against the retained cyclic Jacobi implementation, and the batched Gram
// engine cross-checked against the per-pair prepared SINK path. Both run
// under `make oracle` (the -run Oracle schedule, race detector on).

func randomSymmetric(rng *rand.Rand, n, kind int) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	switch kind {
	case 1: // PSD Gram-style: B Bᵀ with deficient rank
		cols := 1 + n/2
		b := linalg.NewMatrix(n, cols)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		return linalg.SymRankK(b)
	case 2: // wildly scaled entries
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
		return m
	default: // standard normal
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
		return m
	}
}

// TestOracleEigenSolver cross-checks EigenSym (Householder + QL) against
// EigenSymJacobi on random symmetric matrices: eigenvalues must agree to
// 1e-9 of the spectral scale, and the QL decomposition must reconstruct
// the input, ‖A − VΛVᵀ‖_max within the same scaled bound.
func TestOracleEigenSolver(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 12; trial++ {
			n := 2 + rng.Intn(40)
			kind := trial % 3
			a := randomSymmetric(rng, n, kind)
			qlVals, qlVecs := linalg.EigenSym(a)
			jVals, _ := linalg.EigenSymJacobi(a)
			scale := 1.0
			for _, v := range qlVals {
				if av := math.Abs(v); av > scale {
					scale = av
				}
			}
			for i := range qlVals {
				if math.Abs(qlVals[i]-jVals[i]) > 1e-9*scale {
					t.Fatalf("seed %d trial %d (n=%d kind=%d): eigenvalue %d: ql %v vs jacobi %v",
						seed, trial, n, kind, i, qlVals[i], jVals[i])
				}
			}
			// Reconstruction: A == V Λ Vᵀ entrywise within the scaled bound.
			d := linalg.NewMatrix(n, n)
			for i := 0; i < n; i++ {
				d.Set(i, i, qlVals[i])
			}
			rec := linalg.Mul(linalg.Mul(qlVecs, d), qlVecs.Transpose())
			for i := range rec.Data {
				if math.Abs(rec.Data[i]-a.Data[i]) > 1e-9*scale {
					t.Fatalf("seed %d trial %d (n=%d kind=%d): reconstruction off at flat %d: %v vs %v",
						seed, trial, n, kind, i, rec.Data[i], a.Data[i])
				}
			}
		}
	}
}

// TestOracleGramEngine checks the batched SINK Gram engine against the
// per-pair prepared path over the full Table-4 gamma grid on the engine
// differential's series sets (duplicates, constants, mixed scales). The
// contract is bitwise — the engine replays the exact per-pair arithmetic —
// so the comparison is sameValue, not a tolerance tier.
func TestOracleGramEngine(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		queries, refs := EngineSets(seed, false)
		series := append(append([][]float64{}, queries...), refs...)
		var eng *kernel.GramEngine
		rows := make([][]float64, len(series))
		for i := range rows {
			rows[i] = make([]float64, len(series))
		}
		for gamma := 1.0; gamma <= 20; gamma++ {
			s := kernel.SINK{Gamma: gamma}
			if eng == nil {
				var err error
				if eng, err = kernel.NewGramEngineCtx(context.Background(), s, series); err != nil {
					t.Fatal(err)
				}
			} else {
				eng.SetGamma(gamma)
			}
			eng.FillDistancesCtx(nil, rows)
			prep := make([]any, len(series))
			for i, x := range series {
				prep[i] = s.Prepare(x)
			}
			for i := range series {
				for j := range series {
					want := s.PreparedDistance(prep[i], prep[j])
					if !sameValue(rows[i][j], want) {
						t.Fatalf("seed %d gamma %g: engine[%d][%d] = %v, per-pair path %v",
							seed, gamma, i, j, rows[i][j], want)
					}
				}
			}
		}
	}
}
