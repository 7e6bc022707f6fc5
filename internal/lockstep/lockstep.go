// Package lockstep implements the 52 lock-step distance measures of
// Section 5 of the paper: the seven families of the Cha (2007) survey
// (L_p Minkowski, L_1, Intersection, Inner Product, Fidelity, Squared L_2,
// Shannon Entropy), the combination measures, the vicissitude ("Emanon")
// measures the survey proposed, plus DISSIM and the adaptive scaling
// distance (ASD).
//
// Every measure compares the i-th point of one series with the i-th point
// of the other, in O(m). Probability-style measures (entropy, fidelity,
// chi-squared families) assume non-negative inputs; on arbitrary real data
// they may evaluate to +Inf, which the evaluation layer ranks last — this
// mirrors the paper's observation that such measures need MinMax-style
// normalizations. All terms use the guarded arithmetic of package measure,
// so every function is total.
package lockstep

import (
	"fmt"
	"math"

	"repro/internal/measure"
)

//
// ---- L_p Minkowski family ----
//

// Euclidean returns the L2-norm distance, the paper's lock-step baseline,
// as a Panel: batched panel evaluation plus early abandoning on the
// running sum of squares.
func Euclidean() Panel {
	return Panel{
		name: "euclidean",
		dist: func(x, y []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - y[i]
				s += d * d
			}
			return math.Sqrt(s)
		},
		distUpTo: func(x, y []float64, cutoff float64) float64 {
			return sumSqUpTo(x, y, cutoff, math.Sqrt)
		},
		panelUpTo: func(q []float64, panel [][]float64, cutoff float64, out []float64) {
			panelSumSqUpTo(q, panel, cutoff, out, math.Sqrt)
		},
	}
}

// Manhattan returns the L1-norm (city block) distance as a Panel.
func Manhattan() Panel {
	return Panel{
		name: "manhattan",
		dist: func(x, y []float64) float64 {
			var s float64
			for i := range x {
				s += math.Abs(x[i] - y[i])
			}
			return s
		},
		distUpTo:  sumAbsUpTo,
		panelUpTo: panelSumAbsUpTo,
	}
}

// Minkowski returns the L_p-norm distance; p is the only lock-step
// parameter requiring tuning (Table 4).
func Minkowski(p float64) measure.Func {
	return measure.New(fmt.Sprintf("minkowski[p=%g]", p), func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += math.Pow(math.Abs(x[i]-y[i]), p)
		}
		return math.Pow(s, 1/p)
	})
}

// Chebyshev returns the L_inf-norm distance as a Panel.
func Chebyshev() Panel {
	return Panel{
		name: "chebyshev",
		dist: func(x, y []float64) float64 {
			var m float64
			for i := range x {
				if d := math.Abs(x[i] - y[i]); d > m {
					m = d
				}
			}
			return m
		},
		distUpTo:  maxAbsUpTo,
		panelUpTo: panelMaxAbsUpTo,
	}
}

//
// ---- L_1 family ----
//

// Sorensen returns sum|x-y| / sum(x+y).
func Sorensen() measure.Func {
	return measure.New("sorensen", func(x, y []float64) float64 {
		var num, den float64
		for i := range x {
			num += math.Abs(x[i] - y[i])
			den += x[i] + y[i]
		}
		return measure.Div(num, den)
	})
}

// Gower returns the mean absolute difference. The empty pair takes the
// 0/0 := 0 convention (two empty series are identical) instead of NaN.
func Gower() measure.Func {
	return measure.New("gower", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += math.Abs(x[i] - y[i])
		}
		return measure.Div(s, float64(len(x)))
	})
}

// Soergel returns sum|x-y| / sum max(x,y).
func Soergel() measure.Func {
	return measure.New("soergel", func(x, y []float64) float64 {
		var num, den float64
		for i := range x {
			num += math.Abs(x[i] - y[i])
			den += math.Max(x[i], y[i])
		}
		return measure.Div(num, den)
	})
}

// Kulczynski returns sum|x-y| / sum min(x,y).
func Kulczynski() measure.Func {
	return measure.New("kulczynski", func(x, y []float64) float64 {
		var num, den float64
		for i := range x {
			num += math.Abs(x[i] - y[i])
			den += math.Min(x[i], y[i])
		}
		return measure.Div(num, den)
	})
}

// Canberra returns sum |x-y| / (x+y) with per-term guards.
func Canberra() measure.Func {
	return measure.New("canberra", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += measure.Div(math.Abs(x[i]-y[i]), math.Abs(x[i]+y[i]))
		}
		return s
	})
}

// Lorentzian returns sum ln(1 + |x-y|), the natural logarithm of L1 — the
// measure the paper identifies as the new lock-step state of the art. It
// takes one math.Log per block of 16 points (see lorentzBlock), within
// about 2.2e-13 relative of a math.Log1p loop.
func Lorentzian() Panel {
	return Panel{
		name: "lorentzian",
		dist: func(x, y []float64) float64 {
			return sumLog1pAbsUpTo(x, y, math.Inf(1))
		},
		distUpTo:  sumLog1pAbsUpTo,
		panelUpTo: panelSumLog1pAbsUpTo,
	}
}

//
// ---- Intersection family ----
//

// Intersection returns the non-overlap distance (1/2) sum|x-y|.
func Intersection() measure.Func {
	return measure.New("intersection", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += math.Abs(x[i] - y[i])
		}
		return s / 2
	})
}

// WaveHedges returns sum |x-y| / max(x,y) with per-term guards.
func WaveHedges() measure.Func {
	return measure.New("wavehedges", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += measure.Div(math.Abs(x[i]-y[i]), math.Max(x[i], y[i]))
		}
		return s
	})
}

// Czekanowski returns sum|x-y| / sum(x+y) (the distance form of the
// Czekanowski similarity; equivalent to Sorensen, kept for survey parity).
func Czekanowski() measure.Func {
	return measure.New("czekanowski", func(x, y []float64) float64 {
		var num, den float64
		for i := range x {
			num += math.Abs(x[i] - y[i])
			den += x[i] + y[i]
		}
		return measure.Div(num, den)
	})
}

// Motyka returns sum max(x,y) / sum(x+y).
func Motyka() measure.Func {
	return measure.New("motyka", func(x, y []float64) float64 {
		var num, den float64
		for i := range x {
			num += math.Max(x[i], y[i])
			den += x[i] + y[i]
		}
		return measure.Div(num, den)
	})
}

// KulczynskiS returns the reciprocal of the Kulczynski similarity
// sum min / sum |x-y|, i.e. sum|x-y| / sum min(x,y).
func KulczynskiS() measure.Func {
	return measure.New("kulczynski-s", func(x, y []float64) float64 {
		var num, den float64
		for i := range x {
			num += math.Abs(x[i] - y[i])
			den += math.Min(x[i], y[i])
		}
		return measure.Div(num, den)
	})
}

// Ruzicka returns 1 - sum min(x,y) / sum max(x,y).
func Ruzicka() measure.Func {
	return measure.New("ruzicka", func(x, y []float64) float64 {
		var mins, maxs float64
		for i := range x {
			mins += math.Min(x[i], y[i])
			maxs += math.Max(x[i], y[i])
		}
		return 1 - measure.Div(mins, maxs)
	})
}

// Tanimoto returns (sum max - sum min) / sum max.
func Tanimoto() measure.Func {
	return measure.New("tanimoto", func(x, y []float64) float64 {
		var mins, maxs float64
		for i := range x {
			mins += math.Min(x[i], y[i])
			maxs += math.Max(x[i], y[i])
		}
		return measure.Div(maxs-mins, maxs)
	})
}

//
// ---- Inner product family ----
//

// InnerProduct returns the negated inner product -sum(x*y); negation turns
// the similarity into a dissimilarity with identical 1-NN behaviour.
func InnerProduct() measure.Func {
	return measure.New("innerproduct", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += x[i] * y[i]
		}
		return -s
	})
}

// HarmonicMean returns the negated harmonic-mean similarity
// -2 sum x*y/(x+y).
func HarmonicMean() measure.Func {
	return measure.New("harmonicmean", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += measure.Div(x[i]*y[i], x[i]+y[i])
		}
		return -2 * s
	})
}

// Cosine returns 1 - cos(x, y) as a Panel. Its accumulators are not
// monotone, so DistanceUpTo and the panel cutoff path compute exact values
// regardless of the cutoff (trivially within the contracts).
func Cosine() Panel {
	return Panel{
		name: "cosine",
		dist: cosineDist,
		distUpTo: func(x, y []float64, _ float64) float64 {
			return cosineDist(x, y)
		},
		panelUpTo: panelCosine,
	}
}

// KumarHassebrook returns 1 - sum x*y / (sum x^2 + sum y^2 - sum x*y).
func KumarHassebrook() measure.Func {
	return measure.New("kumarhassebrook", func(x, y []float64) float64 {
		var xy, xx, yy float64
		for i := range x {
			xy += x[i] * y[i]
			xx += x[i] * x[i]
			yy += y[i] * y[i]
		}
		return 1 - measure.Div(xy, xx+yy-xy)
	})
}

// Jaccard returns sum (x-y)^2 / (sum x^2 + sum y^2 - sum x*y), one of the
// paper's newly identified strong measures (under MeanNorm).
func Jaccard() measure.Func {
	return measure.New("jaccard", func(x, y []float64) float64 {
		var sq, xy, xx, yy float64
		for i := range x {
			d := x[i] - y[i]
			sq += d * d
			xy += x[i] * y[i]
			xx += x[i] * x[i]
			yy += y[i] * y[i]
		}
		return measure.Div(sq, xx+yy-xy)
	})
}

// Dice returns sum (x-y)^2 / (sum x^2 + sum y^2).
func Dice() measure.Func {
	return measure.New("dice", func(x, y []float64) float64 {
		var sq, xx, yy float64
		for i := range x {
			d := x[i] - y[i]
			sq += d * d
			xx += x[i] * x[i]
			yy += y[i] * y[i]
		}
		return measure.Div(sq, xx+yy)
	})
}

//
// ---- Fidelity family ----
//

// Fidelity returns 1 - sum sqrt(x*y).
func Fidelity() measure.Func {
	return measure.New("fidelity", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += measure.SafeSqrt(x[i] * y[i])
		}
		return measure.Sanitize(1 - s)
	})
}

// Bhattacharyya returns -ln sum sqrt(x*y).
func Bhattacharyya() measure.Func {
	return measure.New("bhattacharyya", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += measure.SafeSqrt(x[i] * y[i])
		}
		if s <= 0 || math.IsNaN(s) {
			return math.Inf(1)
		}
		return -math.Log(s)
	})
}

// Hellinger returns sqrt(2 sum (sqrt x - sqrt y)^2).
func Hellinger() measure.Func {
	return measure.New("hellinger", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := measure.SafeSqrt(x[i]) - measure.SafeSqrt(y[i])
			s += d * d
		}
		return measure.Sanitize(math.Sqrt(2 * s))
	})
}

// Matusita returns sqrt(sum (sqrt x - sqrt y)^2).
func Matusita() measure.Func {
	return measure.New("matusita", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := measure.SafeSqrt(x[i]) - measure.SafeSqrt(y[i])
			s += d * d
		}
		return measure.Sanitize(math.Sqrt(s))
	})
}

// SquaredChord returns sum (sqrt x - sqrt y)^2.
func SquaredChord() measure.Func {
	return measure.New("squaredchord", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := measure.SafeSqrt(x[i]) - measure.SafeSqrt(y[i])
			s += d * d
		}
		return measure.Sanitize(s)
	})
}

//
// ---- Squared L_2 (chi-squared) family ----
//

// SquaredEuclidean returns sum (x-y)^2 as a Panel.
func SquaredEuclidean() Panel {
	return Panel{
		name: "squaredeuclidean",
		dist: func(x, y []float64) float64 {
			var s float64
			for i := range x {
				d := x[i] - y[i]
				s += d * d
			}
			return s
		},
		distUpTo: func(x, y []float64, cutoff float64) float64 {
			return sumSqUpTo(x, y, cutoff, ident)
		},
		panelUpTo: func(q []float64, panel [][]float64, cutoff float64, out []float64) {
			panelSumSqUpTo(q, panel, cutoff, out, ident)
		},
	}
}

// PearsonChiSq returns sum (x-y)^2 / y.
func PearsonChiSq() measure.Func {
	return measure.New("pearsonchisq", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += measure.Div(d*d, y[i])
		}
		return s
	})
}

// NeymanChiSq returns sum (x-y)^2 / x.
func NeymanChiSq() measure.Func {
	return measure.New("neymanchisq", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += measure.Div(d*d, x[i])
		}
		return s
	})
}

// SquaredChiSq returns sum (x-y)^2 / (x+y).
func SquaredChiSq() measure.Func {
	return measure.New("squaredchisq", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += measure.Div(d*d, x[i]+y[i])
		}
		return s
	})
}

// ProbSymmetricChiSq returns 2 sum (x-y)^2 / (x+y).
func ProbSymmetricChiSq() measure.Func {
	return measure.New("probsymmetricchisq", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += measure.Div(d*d, x[i]+y[i])
		}
		return 2 * s
	})
}

// Divergence returns 2 sum (x-y)^2 / (x+y)^2.
func Divergence() measure.Func {
	return measure.New("divergence", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			sum := x[i] + y[i]
			s += measure.Div(d*d, sum*sum)
		}
		return 2 * s
	})
}

// Clark returns sqrt(sum (|x-y| / (x+y))^2), a measure Table 2 reports
// under MinMax.
func Clark() measure.Func {
	return measure.New("clark", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			r := measure.Div(math.Abs(x[i]-y[i]), math.Abs(x[i]+y[i]))
			s += r * r
		}
		return math.Sqrt(s)
	})
}

// AdditiveSymmetricChiSq returns sum (x-y)^2 (x+y) / (x*y).
func AdditiveSymmetricChiSq() measure.Func {
	return measure.New("additivesymmetricchisq", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += measure.Div(d*d*(x[i]+y[i]), x[i]*y[i])
		}
		return s
	})
}

//
// ---- Shannon entropy family ----
//

// KullbackLeibler returns sum x ln(x/y).
func KullbackLeibler() measure.Func {
	return measure.New("kullbackleibler", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += measure.XLogXOverY(x[i], y[i])
		}
		return measure.Sanitize(s)
	})
}

// Jeffreys returns sum (x-y) ln(x/y).
func Jeffreys() measure.Func {
	return measure.New("jeffreys", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			if x[i] <= 0 || y[i] <= 0 {
				if x[i] == y[i] {
					continue
				}
				return math.Inf(1)
			}
			s += (x[i] - y[i]) * math.Log(x[i]/y[i])
		}
		return s
	})
}

// KDivergence returns sum x ln(2x/(x+y)).
func KDivergence() measure.Func {
	return measure.New("kdivergence", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += measure.XLogXOverY(x[i], (x[i]+y[i])/2)
		}
		return measure.Sanitize(s)
	})
}

// Topsoe returns sum [x ln(2x/(x+y)) + y ln(2y/(x+y))], a measure Table 2
// reports under MinMax.
func Topsoe() measure.Func {
	return measure.New("topsoe", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			m := (x[i] + y[i]) / 2
			s += measure.XLogXOverY(x[i], m) + measure.XLogXOverY(y[i], m)
		}
		return measure.Sanitize(s)
	})
}

// JensenShannon returns half the Topsoe divergence.
func JensenShannon() measure.Func {
	return measure.New("jensenshannon", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			m := (x[i] + y[i]) / 2
			s += measure.XLogXOverY(x[i], m) + measure.XLogXOverY(y[i], m)
		}
		return measure.Sanitize(s / 2)
	})
}

// JensenDifference returns sum [(x ln x + y ln y)/2 - m ln m], m = (x+y)/2.
func JensenDifference() measure.Func {
	return measure.New("jensendifference", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			m := (x[i] + y[i]) / 2
			s += (measure.XLogX(x[i])+measure.XLogX(y[i]))/2 - measure.XLogX(m)
		}
		return measure.Sanitize(s)
	})
}

//
// ---- Combination measures ----
//

// Taneja returns sum m * ln(m / sqrt(x*y)), m = (x+y)/2.
func Taneja() measure.Func {
	return measure.New("taneja", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			m := (x[i] + y[i]) / 2
			g := measure.SafeSqrt(x[i] * y[i])
			s += measure.XLogXOverY(m, g)
		}
		return measure.Sanitize(s)
	})
}

// KumarJohnson returns sum (x^2 - y^2)^2 / (2 (x*y)^{3/2}).
func KumarJohnson() measure.Func {
	return measure.New("kumarjohnson", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			num := x[i]*x[i] - y[i]*y[i]
			prod := x[i] * y[i]
			den := 2 * measure.SafeSqrt(prod*prod*prod)
			s += measure.Div(num*num, den)
		}
		return measure.Sanitize(s)
	})
}

// AvgL1Linf returns (sum|x-y| + max|x-y|) / 2, one of the measures Table 2
// finds significantly better than ED.
func AvgL1Linf() measure.Func {
	return measure.New("avgl1linf", func(x, y []float64) float64 {
		var sum, max float64
		for i := range x {
			d := math.Abs(x[i] - y[i])
			sum += d
			if d > max {
				max = d
			}
		}
		return (sum + max) / 2
	})
}

//
// ---- Vicissitude ("Emanon") measures proposed in the survey ----
//

// Emanon1 returns the Vicis-Wave Hedges distance sum |x-y| / min(x,y).
func Emanon1() measure.Func {
	return measure.New("emanon1", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += measure.Div(math.Abs(x[i]-y[i]), math.Min(x[i], y[i]))
		}
		return s
	})
}

// Emanon2 returns the Vicis-Symmetric chi-squared form sum (x-y)^2 / min^2.
func Emanon2() measure.Func {
	return measure.New("emanon2", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			mn := math.Min(x[i], y[i])
			s += measure.Div(d*d, mn*mn)
		}
		return s
	})
}

// Emanon3 returns the Vicis-Symmetric chi-squared form sum (x-y)^2 / min.
func Emanon3() measure.Func {
	return measure.New("emanon3", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += measure.Div(d*d, math.Min(x[i], y[i]))
		}
		return s
	})
}

// Emanon4 returns the Vicis-Symmetric chi-squared form sum (x-y)^2 / max —
// the measure Table 2 reports as significantly better than ED under MinMax.
func Emanon4() measure.Func {
	return measure.New("emanon4", func(x, y []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - y[i]
			s += measure.Div(d*d, math.Max(x[i], y[i]))
		}
		return s
	})
}

// Emanon5 returns the Max-Symmetric chi-squared distance
// max(sum (x-y)^2/x, sum (x-y)^2/y).
func Emanon5() measure.Func {
	return measure.New("emanon5", func(x, y []float64) float64 {
		var sx, sy float64
		for i := range x {
			d := x[i] - y[i]
			sx += measure.Div(d*d, x[i])
			sy += measure.Div(d*d, y[i])
		}
		return math.Max(sx, sy)
	})
}

// Emanon6 returns the Min-Symmetric chi-squared distance
// min(sum (x-y)^2/x, sum (x-y)^2/y). It is the survey's sixth vicissitude
// form, included beyond the paper's counted 52 for completeness.
func Emanon6() measure.Func {
	return measure.New("emanon6", func(x, y []float64) float64 {
		var sx, sy float64
		for i := range x {
			d := x[i] - y[i]
			sx += measure.Div(d*d, x[i])
			sy += measure.Div(d*d, y[i])
		}
		return math.Min(sx, sy)
	})
}

//
// ---- Measures beyond the survey ----
//

// DISSIM returns the smoothing approximation of the DISSIM integral
// distance: the trapezoidal integral over time of the point-wise distance
// function, which folds each point's successor into its contribution.
func DISSIM() measure.Func {
	return measure.New("dissim", func(x, y []float64) float64 {
		if len(x) < 2 {
			if len(x) == 1 {
				return math.Abs(x[0] - y[0])
			}
			return 0
		}
		var s float64
		prev := math.Abs(x[0] - y[0])
		for i := 1; i < len(x); i++ {
			cur := math.Abs(x[i] - y[i])
			s += (prev + cur) / 2
			prev = cur
		}
		return s
	})
}

// ASD returns the adaptive scaling distance: the Euclidean distance after
// rescaling the second series by the least-squares optimal factor
// a = <x, y>/<y, y> (the optimal-scaling comparison of Chu & Wong / Yang &
// Leskovec embedded into a lock-step measure).
func ASD() measure.Func {
	return measure.New("asd", func(x, y []float64) float64 {
		var xy, yy float64
		for i := range x {
			xy += x[i] * y[i]
			yy += y[i] * y[i]
		}
		a := 1.0
		if yy != 0 {
			a = xy / yy
		}
		var s float64
		for i := range x {
			d := x[i] - a*y[i]
			s += d * d
		}
		return math.Sqrt(s)
	})
}

// All returns the full lock-step inventory: the 52 measures counted in
// Table 1 plus the bonus Emanon6, with Minkowski instantiated at p = 0.5
// (its supervised grid lives in the eval package's parameter registry).
func All() []measure.Measure {
	return []measure.Measure{
		// Lp Minkowski family.
		Euclidean(), Manhattan(), Minkowski(0.5), Chebyshev(),
		// L1 family.
		Sorensen(), Gower(), Soergel(), Kulczynski(), Canberra(), Lorentzian(),
		// Intersection family.
		Intersection(), WaveHedges(), Czekanowski(), Motyka(), KulczynskiS(), Ruzicka(), Tanimoto(),
		// Inner product family.
		InnerProduct(), HarmonicMean(), Cosine(), KumarHassebrook(), Jaccard(), Dice(),
		// Fidelity family.
		Fidelity(), Bhattacharyya(), Hellinger(), Matusita(), SquaredChord(),
		// Squared L2 family.
		SquaredEuclidean(), PearsonChiSq(), NeymanChiSq(), SquaredChiSq(),
		ProbSymmetricChiSq(), Divergence(), Clark(), AdditiveSymmetricChiSq(),
		// Entropy family.
		KullbackLeibler(), Jeffreys(), KDivergence(), Topsoe(), JensenShannon(), JensenDifference(),
		// Combinations.
		Taneja(), KumarJohnson(), AvgL1Linf(),
		// Vicissitude.
		Emanon1(), Emanon2(), Emanon3(), Emanon4(), Emanon5(), Emanon6(),
		// Beyond the survey.
		DISSIM(), ASD(),
	}
}
