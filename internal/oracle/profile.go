package oracle

import (
	"context"
	"fmt"
	"math"

	"repro/internal/profile"
)

// The matrix-profile oracle: the STOMP streaming engine differentially
// checked against a naive sliding-scan join that recomputes every
// window-pair distance from scratch — no FFT, no streamed cross terms, no
// shared moments. Agreement is TolFFT (the engine's leading rows ride the
// FFT cross-correlation); claimed nearest-neighbor pairs additionally
// recompute to their reported distance directly.

// profileWindows are the window lengths each corpus input is joined at
// (filtered to w <= n per input): the minimum legal window, odd/even zone
// radii, and one long enough to cross the engine's 3-row block seams many
// times.
var profileWindows = []int{2, 3, 5, 16}

// profilePair couples an engine measure with an independent full-window
// reference distance.
type profilePair struct {
	m   profile.Measure
	ref func(x, y []float64) float64
}

func profilePairs() []profilePair {
	return []profilePair{
		{profile.ZNormEuclidean(), refWindowZNorm},
		{profile.Euclidean(), refWindowEuclidean},
		{profile.PNorm(1), refWindowPNorm(1)},
		{profile.PNorm(3), refWindowPNorm(3)},
	}
}

// refWindowZNorm z-normalizes both windows by explicit two-pass moments
// and takes the plain Euclidean distance of the z-scores, with the
// sqrt(2w) ceiling for zero-variance windows (the engine's convention,
// reached here without the MASS identity).
func refWindowZNorm(x, y []float64) float64 {
	w := float64(len(x))
	zx, cx := znormWin(x)
	zy, cy := znormWin(y)
	if cx || cy {
		return math.Sqrt(2 * w)
	}
	var s float64
	for i := range zx {
		d := zx[i] - zy[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// znormWin returns the two-pass z-scores of one window and whether it is
// constant under the shared relative-variance predicate.
func znormWin(x []float64) ([]float64, bool) {
	w := float64(len(x))
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= w
	var variance, meanSq float64
	for _, v := range x {
		d := v - mean
		variance += d * d
		meanSq += v * v
	}
	variance /= w
	meanSq /= w
	if variance <= 1e-12*(meanSq+1) {
		return nil, true
	}
	std := math.Sqrt(variance)
	z := make([]float64, len(x))
	for i, v := range x {
		z[i] = (v - mean) / std
	}
	return z, false
}

func refWindowEuclidean(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func refWindowPNorm(p float64) func(x, y []float64) float64 {
	return func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += math.Pow(math.Abs(x[i]-y[i]), p)
		}
		return math.Pow(s, 1/p)
	}
}

// naiveProfileJoin is the oracle join: for every query window, scan every
// target window, skip the self-join exclusion zone, and keep the first
// strictly smaller distance (NaN compares false, so poisoned windows are
// never selected) — the same argmin convention the engine finalizes with.
func naiveProfileJoin(a, b []float64, w int, ref func(x, y []float64) float64, self bool) ([]float64, []int) {
	rows := len(a) - w + 1
	cols := len(b) - w + 1
	excl := 0
	if self {
		excl = w / 2
		if excl < 1 {
			excl = 1
		}
	}
	vals := make([]float64, rows)
	idx := make([]int, rows)
	for i := 0; i < rows; i++ {
		best, bestJ := math.Inf(1), -1
		for j := 0; j < cols; j++ {
			if self && j >= i-excl && j <= i+excl {
				continue
			}
			if d := ref(a[i:i+w], b[j:j+w]); d < best {
				best, bestJ = d, j
			}
		}
		vals[i], idx[i] = best, bestJ
	}
	return vals, idx
}

// agreeProfile compares two profile distances on their squares as well:
// the FFT error lives in the dot-product cross term, which the squared
// distance is linear in, while the final square root amplifies rounding
// near zero — a self-match whose correlation is within 1e-12 of exact
// surfaces as ~1e-5 of distance residue, far over TolFFT on the raw
// values but well inside it on the squares.
func agreeProfile(a, b float64) bool {
	return agree(a, b, TolFFT) || agree(a*a, b*b, TolFFT)
}

// checkProfileJoin runs one engine join and verifies it cell-by-cell
// against the naive scan: values within TolFFT, and each claimed neighbor
// pair recomputing to its reported distance.
func checkProfileJoin(r *Report, eng *profile.Engine, p profilePair, in Input, w int, self bool) {
	label := fmt.Sprintf("profile[%s,w=%d,self=%v]", p.m.Name(), w, self)
	var res profile.Result
	var err error
	if !call(r, label, in.Name, "join", func() {
		if self {
			err = eng.SelfJoinInto(context.Background(), in.X, w, &res)
		} else {
			err = eng.ABJoinInto(context.Background(), in.X, in.Y, w, &res)
		}
	}) {
		return
	}
	r.Checks++
	if err != nil {
		r.add(label, in.Name, "oracle", "uncancelled join returned error %v", err)
		return
	}
	b := in.X
	if !self {
		b = in.Y
	}
	vals, _ := naiveProfileJoin(in.X, b, w, p.ref, self)
	for i := range vals {
		if !agreeProfile(res.Values[i], vals[i]) {
			r.add(label, in.Name, "oracle", "row %d: engine %v, naive scan %v",
				i, res.Values[i], vals[i])
		}
		if j := res.Indices[i]; j >= 0 {
			d := p.ref(in.X[i:i+w], b[j:j+w])
			if !agreeProfile(res.Values[i], d) {
				r.add(label, in.Name, "oracle",
					"row %d: claimed neighbor %d recomputes to %v, engine reported %v",
					i, j, d, res.Values[i])
			}
		} else if !math.IsInf(res.Values[i], 1) {
			r.add(label, in.Name, "oracle",
				"row %d: no neighbor claimed but value %v is not +Inf", i, res.Values[i])
		}
	}
}

// checkProfileCancelled verifies the pre-cancelled contract: a join handed
// an already-cancelled context returns context.Canceled.
func checkProfileCancelled(r *Report, in Input, w int) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := profile.New(profile.Options{Workers: 1, BlockRows: 2})
	var res profile.Result
	err := eng.SelfJoinInto(ctx, in.X, w, &res)
	r.Checks++
	if err != context.Canceled {
		r.add("profile[cancel]", in.Name, "oracle", "pre-cancelled join returned %v, want context.Canceled", err)
	}
}

// FuzzProfile runs the matrix-profile differential for one seed: every
// corpus input at every applicable window length, each measure through one
// reused engine (BlockRows 3 forces many block seams and leading-row
// re-seeds), self-join and AB-join both. Extreme-magnitude inputs are
// skipped — their squared cross terms overflow through the FFT seed, the
// same reason FiniteOnly measures skip them.
func FuzzProfile(r *Report, seed int64) {
	corpus := Corpus(seed)
	for _, p := range profilePairs() {
		eng := profile.New(profile.Options{Measure: p.m, BlockRows: 3})
		for _, in := range corpus {
			if in.Extreme {
				continue
			}
			for _, w := range profileWindows {
				if w > len(in.X) || w > len(in.Y) {
					continue
				}
				checkProfileJoin(r, eng, p, in, w, true)
				checkProfileJoin(r, eng, p, in, w, false)
			}
		}
	}
	for _, in := range corpus {
		if len(in.X) >= 8 && in.Finite {
			checkProfileCancelled(r, in, 4)
			break
		}
	}
}
