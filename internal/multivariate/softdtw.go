package multivariate

// Soft-DTW: the differentiable relaxation of DTW where the hard min over
// path predecessors is replaced by a soft-min with temperature Gamma
// (Cuturi & Blondel). The raw value is not a pseudometric — sdtw(x, x) is
// generally negative — so the Normalize option applies the self-distance
// trick d(x, y) = |sdtw(x, y) - (sdtw(x, x) + sdtw(y, y))/2|, which is
// zero on identical series and symmetric by construction.

import (
	"fmt"
	"math"

	"repro/internal/elastic"
)

// SoftDTW is multivariate soft-DTW over vector-valued points with squared
// Euclidean point costs and the full (unbanded) m-by-n DP; unequal lengths
// are supported. Gamma must be > 0. With Normalize set, Distance returns
// the self-distance-normalized value (three DPs per call).
type SoftDTW struct {
	Gamma     float64
	Normalize bool
}

// Name implements Measure.
func (s SoftDTW) Name() string {
	if s.Normalize {
		return fmt.Sprintf("mv-sdtw-n[g=%g]", s.Gamma)
	}
	return fmt.Sprintf("mv-sdtw[g=%g]", s.Gamma)
}

// softMin3 is the numerically stabilized soft minimum
// -gamma*log(sum exp(-v/gamma)): the true min is factored out so the
// exponent arguments are <= 0. An all-+Inf operand set stays +Inf.
func softMin3(a, b, c, gamma float64) float64 {
	mn := a
	if b < mn {
		mn = b
	}
	if c < mn {
		mn = c
	}
	if math.IsInf(mn, 1) {
		return mn
	}
	sum := math.Exp((mn-a)/gamma) + math.Exp((mn-b)/gamma) + math.Exp((mn-c)/gamma)
	return mn - gamma*math.Log(sum)
}

// Distance implements Measure.
func (s SoftDTW) Distance(x, y Series) float64 {
	checkChannels(x, y)
	if !(s.Gamma > 0) {
		panic(fmt.Sprintf("multivariate: soft-DTW gamma %g must be > 0", s.Gamma))
	}
	xy := s.raw(x, y)
	if !s.Normalize {
		return xy
	}
	return math.Abs(xy - 0.5*(s.raw(x, x)+s.raw(y, y)))
}

// raw is the unnormalized soft-DTW value; an empty side leaves only the
// +Inf DP boundary, so it is +Inf against a non-empty series and 0 between
// two empty ones.
func (s SoftDTW) raw(x, y Series) float64 {
	return elastic.DP[softRows]{R: len(x), C: len(y), Rows: softRows{x: x, y: y, gamma: s.Gamma}}.Serial(math.Inf(1))
}

type softRows struct {
	elastic.InfBoundary
	x, y  Series
	gamma float64
}

func (r softRows) Row(i, j0, j1 int, prev, cur []float64) {
	xi := r.x[i-1]
	y := r.y[j0-1 : j1]
	up, out := prev[1:][:len(y)], cur[1:][:len(y)]
	diag, left := prev[0], cur[0]
	for k, yj := range y {
		u := up[k]
		cost := sqDist(xi, yj)
		left = cost + softMin3(diag, u, left, r.gamma)
		out[k] = left
		diag = u
	}
}
