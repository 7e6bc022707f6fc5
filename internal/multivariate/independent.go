package multivariate

// Independent lifts: apply a univariate measure per channel and sum the
// per-channel distances. Channel extraction goes through the pooled
// chanScratch buffers, so warm calls allocate nothing beyond what the
// base measure itself allocates (the elastic DPs are pooled too, so the
// DTW-I hot path is fully allocation-free).

import (
	"context"
	"fmt"
	"math"

	"repro/internal/elastic"
	"repro/internal/measure"
)

// DTWIndependent is multivariate DTW with one warping path per channel
// (DTW-I): the distance is the sum over channels of the univariate DTW of
// the channel pair. DeltaPercent is the Sakoe-Chiba band passed to each
// univariate DP. Like univariate DTW, it requires equal lengths.
type DTWIndependent struct {
	DeltaPercent int
}

// Name implements Measure.
func (d DTWIndependent) Name() string { return fmt.Sprintf("mv-dtw-i[d=%d]", d.DeltaPercent) }

// Symmetric reports bitwise symmetry, inherited per channel from the
// univariate DTW.
func (d DTWIndependent) Symmetric() bool { return true }

// Distance implements Measure.
func (d DTWIndependent) Distance(x, y Series) float64 {
	return Independent{Base: elastic.DTW{DeltaPercent: d.DeltaPercent}}.Distance(x, y)
}

// DistanceUpTo implements EarlyAbandoning: per-channel distances are
// non-negative, so the running sum is a certified lower bound and each
// channel DP may itself abandon against the remaining budget.
func (d DTWIndependent) DistanceUpTo(x, y Series, cutoff float64) float64 {
	return Independent{Base: elastic.DTW{DeltaPercent: d.DeltaPercent}}.DistanceUpTo(x, y, cutoff)
}

// DistanceCtx implements ContextMeasure, checking ctx between channels.
func (d DTWIndependent) DistanceCtx(ctx context.Context, x, y Series) (float64, error) {
	return Independent{Base: elastic.DTW{DeltaPercent: d.DeltaPercent}}.DistanceCtx(ctx, x, y)
}

// Independent lifts any univariate measure to multivariate series by
// summing per-channel distances. At one channel it is bitwise the base
// measure (sum of one term). It requires equal lengths — the lift feeds
// the base measure aligned channel pairs — and inherits early abandoning
// when the base supports it.
type Independent struct {
	Base measure.Measure
}

// Name implements Measure.
func (ind Independent) Name() string { return "mv-indep[" + ind.Base.Name() + "]" }

// Distance implements Measure.
func (ind Independent) Distance(x, y Series) float64 {
	d := checkLockstep(x, y)
	s, bufA, bufB := borrowChannels(len(x), len(y))
	defer s.release()
	var sum float64
	for c := 0; c < d; c++ {
		cx := x.ChannelInto(c, bufA)
		cy := y.ChannelInto(c, bufB)
		sum += ind.Base.Distance(cx, cy)
	}
	return sum
}

// DistanceUpTo implements EarlyAbandoning. Per-channel distances are
// non-negative, so the partial sum is a certified lower bound; when the
// base measure supports early abandoning the remaining budget is passed
// down as the per-channel cutoff. With an infinite cutoff no channel is
// abandoned and no early exit fires, so the result is bitwise Distance —
// even when channel distances mix +Inf and NaN.
func (ind Independent) DistanceUpTo(x, y Series, cutoff float64) float64 {
	d := checkLockstep(x, y)
	ea, hasEA := ind.Base.(measure.EarlyAbandoning)
	abandoning := !math.IsInf(cutoff, 1)
	s, bufA, bufB := borrowChannels(len(x), len(y))
	defer s.release()
	var sum float64
	for c := 0; c < d; c++ {
		cx := x.ChannelInto(c, bufA)
		cy := y.ChannelInto(c, bufB)
		if hasEA {
			rem := cutoff - sum
			if math.IsNaN(rem) {
				rem = math.Inf(1)
			}
			sum += ea.DistanceUpTo(cx, cy, rem)
		} else {
			sum += ind.Base.Distance(cx, cy)
		}
		if abandoning && sum >= cutoff {
			return sum
		}
	}
	return sum
}

// DistanceCtx implements ContextMeasure, checking ctx between channels.
func (ind Independent) DistanceCtx(ctx context.Context, x, y Series) (float64, error) {
	d := checkLockstep(x, y)
	s, bufA, bufB := borrowChannels(len(x), len(y))
	defer s.release()
	var sum float64
	for c := 0; c < d; c++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cx := x.ChannelInto(c, bufA)
		cy := y.ChannelInto(c, bufB)
		sum += ind.Base.Distance(cx, cy)
	}
	return sum, nil
}
