package elastic

import (
	"math"
	"math/rand"
	"testing"
)

// countingRows wraps a Recurrence and counts the DP cells its row function
// computes, so tests and benchmarks can measure the work pruning avoids.
type countingRows[K Recurrence] struct {
	rows  K
	cells *int64
}

func (c countingRows[K]) Boundary(top, left []float64) float64 { return c.rows.Boundary(top, left) }

func (c countingRows[K]) Row(i, j0, j1 int, prev, cur []float64) {
	*c.cells += int64(j1 - j0 + 1)
	c.rows.Row(i, j0, j1, prev, cur)
}

// counted returns p with its row function counted into cells.
func counted[K Recurrence](p DP[K], cells *int64) DP[countingRows[K]] {
	return DP[countingRows[K]]{R: p.R, C: p.C, W: p.W, OOB: p.OOB, Prune: p.Prune, Rows: countingRows[K]{p.Rows, cells}}
}

// nnScan returns a query and k references of length n for a 1-NN scan:
// the references are noisy copies of two random-walk prototypes, the
// query a noisy copy of the first.
func nnScan(n, k int) (q []float64, refs [][]float64) {
	rng := rand.New(rand.NewSource(11))
	var protos [2][]float64
	for c := range protos {
		protos[c] = make([]float64, n)
		for i := 1; i < n; i++ {
			protos[c][i] = protos[c][i-1] + 0.3*rng.NormFloat64()
		}
	}
	noisy := func(p []float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = p[i] + 0.25*rng.NormFloat64()
		}
		return s
	}
	for r := 0; r < k; r++ {
		refs = append(refs, noisy(protos[r%2]))
	}
	return noisy(protos[0]), refs
}

// scanUpTo runs the 1-NN scan of q over refs, each candidate under the
// best-so-far cutoff, and returns the nearest distance.
func scanUpTo(q []float64, refs [][]float64, upTo func(x, y []float64, cutoff float64) float64) float64 {
	best := math.Inf(1)
	for _, r := range refs {
		if d := upTo(q, r, best); d < best {
			best = d
		}
	}
	return best
}

// scanCells returns the DP cells that the 1-NN scan of q over refs
// computes in all, and the cells of one unpruned DP.
func scanCells[K Recurrence](dp func(x, y []float64) DP[K], q []float64, refs [][]float64) (cells, full int64) {
	scanUpTo(q, refs, func(x, y []float64, cutoff float64) float64 {
		return counted(dp(x, y), &cells).Serial(cutoff)
	})
	counted(dp(q, refs[0]), &full).Serial(math.NaN())
	return cells, full
}

// TestSerialPrunesCells: under a 1-NN scan's best-so-far cutoffs the
// pruned DP computes exactly the pinned number of cells, fewer than the
// full DPs, and finds the nearest distance bitwise. The totals are the
// pruning rule's work: a row function or driver change that computes a
// different span changes them.
func TestSerialPrunesCells(t *testing.T) {
	q, refs := nnScan(64, 16)
	check := func(name string, cells, full, want int64, m interface {
		Distance(x, y []float64) float64
		DistanceUpTo(x, y []float64, cutoff float64) float64
	}) {
		t.Helper()
		nearest := math.Inf(1)
		for _, r := range refs {
			nearest = min(nearest, m.Distance(q, r))
		}
		if got := scanUpTo(q, refs, m.DistanceUpTo); math.Float64bits(got) != math.Float64bits(nearest) {
			t.Errorf("%s: pruned scan found %v, exhaustive %v", name, got, nearest)
		}
		if cells != want {
			t.Errorf("%s: scan computed %d cells, want %d", name, cells, want)
		}
		if !(cells < full*int64(len(refs))) {
			t.Errorf("%s: %d cells, %d full DPs of %d", name, cells, len(refs), full)
		}
		t.Logf("%s: %d cells, %.0f of %d per distance", name, cells, float64(cells)/float64(len(refs)), full)
	}
	msm, dtw, twe, erp := MSM{C: 0.5}, DTW{DeltaPercent: 10}, TWE{Lambda: 1, Nu: 0.0001}, ERP{}
	cells, full := scanCells(msm.dp, q, refs)
	check("msm", cells, full, 20390, msm)
	cells, full = scanCells(dtw.dp, q, refs)
	check("dtw", cells, full, 7391, dtw)
	cells, full = scanCells(twe.dp, q, refs)
	check("twe", cells, full, 21652, twe)
	cells, full = scanCells(erp.dp, q, refs)
	check("erp", cells, full, 20497, erp)
}

// benchScan times the 1-NN scan through upTo and reports the DP cells a
// distance computes, counted once outside the timer, against the full DP.
func benchScan(b *testing.B, q []float64, refs [][]float64, cells, full int64, upTo func(x, y []float64, cutoff float64) float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanUpTo(q, refs, upTo)
	}
	perDist := float64(cells) / float64(len(refs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(refs)), "ns/dist")
	b.ReportMetric(perDist, "cells/dist")
	b.ReportMetric(perDist/float64(full), "cells/full")
}

// BenchmarkHotloopsMSMUpTo and BenchmarkHotloopsDTWUpTo run a 1-NN scan
// of 64 references at n=128 (the shape of a UCR leave-one-out row), MSM
// unbanded and DTW with a 10% band.
func BenchmarkHotloopsMSMUpTo(b *testing.B) {
	q, refs := nnScan(128, 64)
	m := MSM{C: 0.5}
	cells, full := scanCells(m.dp, q, refs)
	benchScan(b, q, refs, cells, full, m.DistanceUpTo)
}

func BenchmarkHotloopsDTWUpTo(b *testing.B) {
	q, refs := nnScan(128, 64)
	d := DTW{DeltaPercent: 10}
	cells, full := scanCells(d.dp, q, refs)
	benchScan(b, q, refs, cells, full, d.DistanceUpTo)
}
