package profile

import "math"

// Match is one search hit: the starting offset of the subsequence and its
// distance to the query.
type Match struct {
	Offset   int
	Distance float64
}

// TopK returns the k best non-overlapping z-normalized matches of q in t
// (an exclusion zone of half the query length around each selected match
// suppresses trivial neighbors), sorted by ascending distance.
//
// Zero-variance windows — and every window when the query itself is
// constant — carry the conventional sqrt(2w) ceiling in the distance
// profile, not a real distance, so they are never reported as matches: a
// flat tail cannot pad the results with phantom hits when k exceeds the
// number of genuine matches, and the result may then hold fewer than k
// entries. Genuine windows that happen to score near the ceiling (zero
// correlation) are unaffected; exclusion is by the zero-variance flag,
// not by distance value. NaN windows (those holding a non-finite sample,
// or all of them when the query holds one) are skipped the same way.
func TopK(t, q []float64, k int) []Match {
	e := New(Options{})
	prof := e.DistanceProfile(t, q, nil)
	if e.statsA.Const[0] {
		return nil
	}
	excl := len(q) / 2
	if excl < 1 {
		excl = 1
	}
	taken := make([]bool, len(prof))
	var out []Match
	for len(out) < k {
		best := -1
		for i, d := range prof {
			if taken[i] || e.statsB.Const[i] || math.IsNaN(d) {
				continue
			}
			if best == -1 || d < prof[best] {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, Match{Offset: best, Distance: prof[best]})
		for i := best - excl; i <= best+excl; i++ {
			if i >= 0 && i < len(taken) {
				taken[i] = true
			}
		}
	}
	return out
}

// Motif returns the best motif pair of a self-join: the row with the
// smallest profile value and its neighbor, or (-1, -1, +Inf) when no row
// has an admissible neighbor.
func (r *Result) Motif() (i, j int, dist float64) {
	best := -1
	for k, v := range r.Values {
		if r.Indices[k] >= 0 && (best == -1 || v < r.Values[best]) {
			best = k
		}
	}
	if best == -1 {
		return -1, -1, math.Inf(1)
	}
	return best, r.Indices[best], r.Values[best]
}

// Discord returns the top anomaly of a self-join: the row whose nearest
// admissible neighbor is farthest. Rows with no admissible neighbor (every
// other window inside the exclusion zone, or non-finite) carry no
// distance information and are never reported, so a profile without any
// neighbor yields the (-1, +Inf) sentinel rather than a bogus offset-0
// discord.
func (r *Result) Discord() (offset int, dist float64) {
	best := -1
	for k, v := range r.Values {
		if r.Indices[k] >= 0 && (best == -1 || v > r.Values[best]) {
			best = k
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	return best, r.Values[best]
}
