package fft

import (
	"math"
	"math/rand"
	"testing"
)

// TestSlidingPlanMatchesCrossCorrelation pins the bitwise contract: the
// planned sliding dots must reproduce CrossCorrelation's non-negative
// shifts exactly, so callers can swap routes without value drift.
func TestSlidingPlanMatchesCrossCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 3, 8, 33, 100} {
		series := make([]float64, n)
		for i := range series {
			series[i] = rng.NormFloat64()
		}
		for _, w := range []int{1, 2, 3, n} {
			if w > n {
				continue
			}
			var p SlidingPlan
			p.Reset(series, w)
			q := make([]float64, w)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			cc := CrossCorrelation(series, q)
			dst := make([]float64, n-w+1)
			buf := make([]complex128, p.PaddedLen()/2+1)
			got := p.SlidingDots(q, dst, buf)
			if len(got) != n-w+1 {
				t.Fatalf("n=%d w=%d: got %d dots, want %d", n, w, len(got), n-w+1)
			}
			for s := range got {
				if math.Float64bits(got[s]) != math.Float64bits(cc[s+w-1]) {
					t.Errorf("n=%d w=%d shift %d: plan %v, CrossCorrelation %v",
						n, w, s, got[s], cc[s+w-1])
				}
			}
		}
	}
}

// TestSlidingPlanReset verifies Reset re-targets a warm plan (buffer
// reuse included) and that repeated scans after Reset stay correct.
func TestSlidingPlanReset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	series := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}
	var p SlidingPlan // zero value, Reset must initialize it
	big := series(64)
	p.Reset(big, 8)
	small := series(16)
	p.Reset(small, 4)
	q := series(4)
	dst := make([]float64, 16)
	buf := make([]complex128, p.PaddedLen()/2+1)
	got := p.SlidingDots(q, dst, buf)
	for s := range got {
		var want float64
		for k := 0; k < 4; k++ {
			want += q[k] * small[s+k]
		}
		if math.Abs(got[s]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("after Reset, shift %d: got %v want %v", s, got[s], want)
		}
	}
	if len(got) != 13 {
		t.Errorf("after Reset, %d dots, want 13", len(got))
	}
}

// TestSlidingPlanPanics pins the out-of-range window contract.
func TestSlidingPlanPanics(t *testing.T) {
	for _, tc := range []struct {
		n, w int
	}{{4, 0}, {4, 5}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset(len %d, w %d) did not panic", tc.n, tc.w)
				}
			}()
			var p SlidingPlan
			p.Reset(make([]float64, tc.n), tc.w)
		}()
	}
	var p SlidingPlan
	p.Reset([]float64{1, 2, 3, 4}, 2)
	defer func() {
		if recover() == nil {
			t.Error("SlidingDots with wrong query length did not panic")
		}
	}()
	p.SlidingDots([]float64{1, 2, 3}, make([]float64, 3), make([]complex128, p.PaddedLen()/2+1))
}
