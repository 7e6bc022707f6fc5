// Package multivariate promotes the core distance measures to a
// first-class multivariate measure axis, the extension footnote 1 of the
// paper leaves as future work. A multivariate series is a [time][channel]
// matrix; the package provides the two standard generalizations of the
// elastic measures — dependent (one warping path over vector-valued
// points) and independent (one warping path per channel, costs summed) —
// plus vector lock-step distances, NaN-masked lock-step measures with
// valid-pair normalization and a per-channel minimum-support rule,
// differentiable soft-DTW with the self-distance normalization trick, and
// parallel cancellable 1-NN evaluation.
//
// Contracts mirror internal/measure: Measure is the base Name/Distance
// pair, EarlyAbandoning adds the certified-lower-bound DistanceUpTo route,
// and ContextMeasure the cancellation-aware DistanceCtx route. Dependent
// elastic measures and soft-DTW accept unequal-length pairs (an m-by-n DP,
// exactly like their univariate definitions); lock-step, masked, and
// independent-lift measures require equal lengths and panic otherwise,
// matching the univariate convention. Every measure panics on a channel
// mismatch. At one channel, every plain (unmasked) measure reproduces its
// univariate counterpart bitwise — the oracle harness pins this.
package multivariate

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// Series is a multivariate time series: Series[t][c] is channel c at time
// t. All rows must share the channel count.
type Series [][]float64

// Validate checks the series is rectangular and non-empty.
func (s Series) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("multivariate: empty series")
	}
	d := len(s[0])
	if d == 0 {
		return fmt.Errorf("multivariate: zero channels")
	}
	for t, row := range s {
		if len(row) != d {
			return fmt.Errorf("multivariate: row %d has %d channels, want %d", t, len(row), d)
		}
	}
	return nil
}

// Channels returns the channel count (0 for an empty series).
func (s Series) Channels() int {
	if len(s) == 0 {
		return 0
	}
	return len(s[0])
}

// Channel extracts one channel as a freshly allocated univariate series.
// Hot loops use ChannelInto with a pooled buffer instead.
func (s Series) Channel(c int) []float64 {
	return s.ChannelInto(c, make([]float64, len(s)))
}

// ChannelInto extracts channel c into dst, which must have length >=
// len(s), and returns dst[:len(s)]. It is the allocation-free spelling of
// Channel for pooled buffers.
func (s Series) ChannelInto(c int, dst []float64) []float64 {
	dst = dst[:len(s)]
	for t, row := range s {
		dst[t] = row[c]
	}
	return dst
}

// ZNormalize z-scores every channel independently, the standard
// preprocessing for multivariate archives.
func (s Series) ZNormalize() Series {
	if len(s) == 0 {
		return s
	}
	d := s.Channels()
	out := make(Series, len(s))
	for t := range out {
		out[t] = make([]float64, d)
	}
	for c := 0; c < d; c++ {
		var mean float64
		for t := range s {
			mean += s[t][c]
		}
		mean /= float64(len(s))
		var ss float64
		for t := range s {
			diff := s[t][c] - mean
			ss += diff * diff
		}
		std := math.Sqrt(ss / float64(len(s)))
		for t := range s {
			if std == 0 {
				out[t][c] = 0
			} else {
				out[t][c] = (s[t][c] - mean) / std
			}
		}
	}
	return out
}

// Measure is a dissimilarity over multivariate series, mirroring
// measure.Measure: smaller means more similar, NaN is treated as +Inf by
// the evaluation layer.
type Measure interface {
	// Name returns a stable identifier used in tables and registries
	// (e.g. "mv-dtw-d[d=10]").
	Name() string
	// Distance returns the dissimilarity of x and y.
	Distance(x, y Series) float64
}

// EarlyAbandoning is the optional best-so-far-aware route, mirroring
// measure.EarlyAbandoning: DistanceUpTo returns Distance(x, y) exactly
// whenever that value is < cutoff, and otherwise any certified lower bound
// v with cutoff <= v <= Distance(x, y).
type EarlyAbandoning interface {
	Measure
	DistanceUpTo(x, y Series, cutoff float64) float64
}

// ContextMeasure is the optional cancellation-aware route: an uncancelled
// call returns exactly Distance(x, y); a cancelled call either surfaces
// ctx.Err() or still returns the exact value — never a partial
// accumulation.
type ContextMeasure interface {
	Measure
	DistanceCtx(ctx context.Context, x, y Series) (float64, error)
}

// checkChannels panics when the two series disagree on channel count —
// every multivariate measure rejects that — and returns the shared count.
// An empty series carries no channel count and is compatible with any
// counterpart. Lengths are deliberately not checked here: the dependent
// elastic measures run an m-by-n DP over unequal-length pairs.
func checkChannels(x, y Series) int {
	if len(x) == 0 {
		return y.Channels()
	}
	if len(y) == 0 {
		return x.Channels()
	}
	if x.Channels() != y.Channels() {
		panic(fmt.Sprintf("multivariate: channel mismatch %d vs %d", x.Channels(), y.Channels()))
	}
	return x.Channels()
}

// checkLockstep is checkChannels plus the equal-length requirement of the
// lock-step measures, matching measure.CheckSameLength's panic convention.
func checkLockstep(x, y Series) int {
	if len(x) != len(y) {
		panic(fmt.Sprintf("multivariate: series length mismatch %d vs %d", len(x), len(y)))
	}
	return checkChannels(x, y)
}

// chanScratch pools two univariate channel buffers so the independent
// lifts extract channels without per-call allocation, the same pattern as
// the elastic row pool.
type chanScratch struct{ a, b []float64 }

var chanPool = sync.Pool{New: func() any { return new(chanScratch) }}

// borrowChannels returns a pooled scratch holder and two buffers with
// capacity for na and nb samples. Contents are unspecified; ChannelInto
// overwrites every cell.
func borrowChannels(na, nb int) (*chanScratch, []float64, []float64) {
	s := chanPool.Get().(*chanScratch)
	if cap(s.a) < na {
		s.a = make([]float64, na)
	}
	if cap(s.b) < nb {
		s.b = make([]float64, nb)
	}
	return s, s.a[:na], s.b[:nb]
}

func (s *chanScratch) release() { chanPool.Put(s) }

// Euclidean is the vector lock-step distance: the square root of the
// summed squared vector differences. At one channel it is bitwise the
// univariate Euclidean distance (the accumulation order matches).
type Euclidean struct{}

// Name implements Measure.
func (Euclidean) Name() string { return "mv-euclidean" }

// Distance implements Measure.
func (Euclidean) Distance(x, y Series) float64 {
	checkLockstep(x, y)
	var s float64
	for t := range x {
		for c := range x[t] {
			d := x[t][c] - y[t][c]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

// DistanceUpTo implements EarlyAbandoning: the partial sum is monotone, so
// once sqrt(partial) would reach cutoff the partial root is a certified
// lower bound. Comparison happens in squared space to avoid a sqrt per
// sample.
func (Euclidean) DistanceUpTo(x, y Series, cutoff float64) float64 {
	checkLockstep(x, y)
	sq := cutoff * cutoff
	var s float64
	for t := range x {
		for c := range x[t] {
			d := x[t][c] - y[t][c]
			s += d * d
		}
		if s >= sq {
			return math.Sqrt(s)
		}
	}
	return math.Sqrt(s)
}
