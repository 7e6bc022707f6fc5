// Package kshape implements the k-Shape clustering algorithm (Paparrizos &
// Gravano, SIGMOD 2015), the state-of-the-art time-series clustering method
// built on the cross-correlation distance (SBD/NCCc) that Section 6 of the
// paper credits for renewing interest in sliding measures.
//
// k-Shape alternates an assignment step (each series joins the cluster
// whose centroid is nearest under SBD) with a refinement step (shape
// extraction: each centroid becomes the dominant eigenvector of the
// Rayleigh-quotient matrix of its SBD-aligned members). Both steps are
// deterministic given the seed.
package kshape

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/fft"
)

// Config controls a k-Shape run.
type Config struct {
	K        int   // number of clusters (required, >= 1)
	MaxIter  int   // maximum refinement iterations (default 100)
	Seed     int64 // initial assignment seed
	PowerIts int   // power-iteration steps for shape extraction (default 100)
}

// Result holds a clustering: per-series labels (0-based cluster ids), the
// extracted centroids, and the number of iterations until convergence.
type Result struct {
	Labels    []int
	Centroids [][]float64
	Iters     int
}

// sbdBest scores a full cross-correlation sequence: the SBD distance
// 1 - max normalized correlation, and the corresponding shift of y
// relative to x (positive: move y right).
func sbdBest(cc []float64, m int, den float64) (dist float64, shift int) {
	bestIdx, best := m-1, math.Inf(-1)
	for k, v := range cc {
		s := v
		if den != 0 {
			s = v / den
		}
		if s > best {
			best, bestIdx = s, k
		}
	}
	if den == 0 {
		best = 0
	}
	return 1 - best, bestIdx - (m - 1)
}

// alignShift returns y shifted by the given lag into a length-m buffer,
// zero-padded.
func alignShift(y []float64, shift, m int) []float64 {
	aligned := make([]float64, m)
	for i := range y {
		j := i + shift
		if j >= 0 && j < m {
			aligned[j] = y[i]
		}
	}
	return aligned
}

// sbdShift returns the SBD distance between x and y along with the
// y-aligned-to-x version of y (shifted by the optimal cross-correlation
// lag, zero-padded). One-shot form; loops that keep one side fixed plan
// it once instead (see Run, extractShape, Inertia).
func sbdShift(x, y []float64) (dist float64, aligned []float64) {
	m := len(x)
	cc := fft.CrossCorrelation(x, y)
	den := norm2(x) * norm2(y)
	dist, shift := sbdBest(cc, m, den)
	return dist, alignShift(y, shift, m)
}

// sbdPlanned is the SBD distance between two planned series, skipping the
// alignment output the assignment loop discards. The planned
// cross-correlation is bitwise identical to the one-shot route, so
// assignments are unchanged; what it saves is the forward transform both
// sides used to pay on every pairing.
func sbdPlanned(px, py *fft.Plan, denX, denY float64, cc []float64, buf []complex128) float64 {
	cc = px.CrossCorrelateTo(py, cc, buf)
	d, _ := sbdBest(cc, px.Len(), denX*denY)
	return d
}

// extractShape computes the new centroid of the member series, each first
// aligned to the previous centroid: the dominant eigenvector of
// Q S Q where S = Z^T Z and Q is the centering matrix, found by power
// iteration (deterministic start).
func extractShape(members [][]float64, prev []float64, powerIts int) []float64 {
	m := len(prev)
	if len(members) == 0 {
		return append([]float64(nil), prev...)
	}
	aligned := make([][]float64, len(members))
	if isZero(prev) {
		copy(aligned, members)
	} else {
		// Plan prev once: its forward transform is shared across every
		// member alignment instead of being recomputed per pairing.
		prevPlan := fft.NewPlan(prev)
		prevNorm := norm2(prev)
		for i, y := range members {
			cc := prevPlan.CrossCorrelate(y)
			_, shift := sbdBest(cc, m, prevNorm*norm2(y))
			aligned[i] = alignShift(y, shift, m)
		}
	}
	// S = Z^T Z (m x m).
	s := make([][]float64, m)
	for i := range s {
		s[i] = make([]float64, m)
	}
	for _, z := range aligned {
		for i := 0; i < m; i++ {
			zi := z[i]
			if zi == 0 {
				continue
			}
			row := s[i]
			for j := 0; j < m; j++ {
				row[j] += zi * z[j]
			}
		}
	}
	// M = Q S Q with Q = I - ones/m, applied implicitly:
	// (Q S Q)v = Q(S(Qv)).
	center := func(v []float64) {
		var mean float64
		for _, x := range v {
			mean += x
		}
		mean /= float64(m)
		for i := range v {
			v[i] -= mean
		}
	}
	mul := func(v []float64) []float64 {
		out := make([]float64, m)
		for i := 0; i < m; i++ {
			var sum float64
			row := s[i]
			for j := 0; j < m; j++ {
				sum += row[j] * v[j]
			}
			out[i] = sum
		}
		return out
	}
	// Power iteration on v -> Q S Q v from a deterministic start.
	v := make([]float64, m)
	for i := range v {
		v[i] = math.Sin(float64(i + 1)) // fixed, non-degenerate start
	}
	if powerIts <= 0 {
		powerIts = 100
	}
	for it := 0; it < powerIts; it++ {
		center(v)
		v = mul(v)
		center(v)
		nrm := norm2(v)
		if nrm == 0 {
			return append([]float64(nil), prev...)
		}
		for i := range v {
			v[i] /= nrm
		}
	}
	// Resolve the sign ambiguity: pick the orientation closer to the
	// cluster members (smaller distance to the first member).
	flipped := make([]float64, m)
	for i := range v {
		flipped[i] = -v[i]
	}
	dPos, _ := sbdShift(dataset.ZNormalize(v), aligned[0])
	dNeg, _ := sbdShift(dataset.ZNormalize(flipped), aligned[0])
	if dNeg < dPos {
		v = flipped
	}
	return dataset.ZNormalize(v)
}

func isZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

func norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Run clusters the z-normalized series into cfg.K clusters. ctx is checked
// before each refinement iteration: a cancelled run stops within one
// iteration and returns ctx.Err() with a zero Result. It panics for
// invalid configurations (K < 1, K > len(series), or empty input).
func Run(ctx context.Context, series [][]float64, cfg Config) (Result, error) {
	n := len(series)
	if n == 0 {
		panic("kshape: no series")
	}
	if cfg.K < 1 || cfg.K > n {
		panic(fmt.Sprintf("kshape: K=%d with %d series", cfg.K, n))
	}
	m := len(series[0])
	for i, s := range series {
		if len(s) != m {
			panic(fmt.Sprintf("kshape: series %d has length %d, want %d", i, len(s), m))
		}
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(cfg.K)
	}
	centroids := make([][]float64, cfg.K)
	for c := range centroids {
		centroids[c] = make([]float64, m) // zero centroid: first pass skips alignment
	}

	// Plan every series once: the assignment loop cross-correlates each
	// series against each centroid every iteration, and the series-side
	// forward transforms never change.
	seriesPlans := make([]*fft.Plan, n)
	seriesNorms := make([]float64, n)
	for i, s := range series {
		seriesPlans[i] = fft.NewPlan(s)
		seriesNorms[i] = norm2(s)
	}
	centPlans := make([]*fft.Plan, cfg.K)
	centNorms := make([]float64, cfg.K)
	var ccBuf []float64
	if m > 0 {
		ccBuf = make([]float64, 2*m-1)
	}
	fftBuf := make([]complex128, seriesPlans[0].PaddedLen()/2)

	res := Result{Labels: labels, Centroids: centroids}
	for iter := 1; iter <= maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		res.Iters = iter
		// Refinement: extract each cluster's shape.
		for c := 0; c < cfg.K; c++ {
			var members [][]float64
			for i, l := range labels {
				if l == c {
					members = append(members, series[i])
				}
			}
			centroids[c] = extractShape(members, centroids[c], cfg.PowerIts)
		}
		// Assignment: move each series to its nearest centroid. Centroids
		// change once per iteration, so each is planned once here rather
		// than re-transformed for every series pairing.
		for c := range centroids {
			if isZero(centroids[c]) {
				centPlans[c] = nil
				continue
			}
			centPlans[c] = fft.NewPlan(centroids[c])
			centNorms[c] = norm2(centroids[c])
		}
		changed := false
		for i := range series {
			best, bestD := labels[i], math.Inf(1)
			for c := 0; c < cfg.K; c++ {
				if centPlans[c] == nil {
					continue
				}
				d := sbdPlanned(centPlans[c], seriesPlans[i], centNorms[c], seriesNorms[i], ccBuf, fftBuf)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if best != labels[i] {
				labels[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	res.Labels = labels
	res.Centroids = centroids
	return res, nil
}

// Inertia returns the clustering objective: the sum of SBD distances from
// every series to its cluster centroid (lower is tighter).
func Inertia(series [][]float64, res Result) float64 {
	// Centroids repeat across their members, so each is planned lazily on
	// first use and its forward transform shared.
	plans := make([]*fft.Plan, len(res.Centroids))
	norms := make([]float64, len(res.Centroids))
	var sum float64
	for i, s := range series {
		l := res.Labels[i]
		c := res.Centroids[l]
		if isZero(c) {
			sum += 1 // empty cluster: maximal SBD by convention
			continue
		}
		if plans[l] == nil {
			plans[l] = fft.NewPlan(c)
			norms[l] = norm2(c)
		}
		cc := plans[l].CrossCorrelate(s)
		d, _ := sbdBest(cc, len(c), norms[l]*norm2(s))
		sum += d
	}
	return sum
}

// RunRestarts runs k-Shape from several random initializations (seeds
// cfg.Seed, cfg.Seed+1, ...) and keeps the result with the lowest inertia,
// the standard guard against bad local optima of the alternating scheme.
// Every run observes ctx as Run does; a cancelled call returns ctx.Err()
// with a zero Result.
func RunRestarts(ctx context.Context, series [][]float64, cfg Config, restarts int) (Result, error) {
	if restarts < 1 {
		restarts = 1
	}
	var best Result
	bestInertia := math.Inf(1)
	for r := 0; r < restarts; r++ {
		c := cfg
		c.Seed = cfg.Seed + int64(r)
		res, err := Run(ctx, series, c)
		if err != nil {
			return Result{}, err
		}
		if in := Inertia(series, res); in < bestInertia {
			bestInertia = in
			best = res
		}
	}
	return best, nil
}

// RandIndex computes the (unadjusted) Rand index between two labelings:
// the fraction of series pairs on which they agree (same/different
// cluster). 1 means identical partitions.
func RandIndex(a, b []int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("kshape: label lengths %d vs %d", len(a), len(b)))
	}
	n := len(a)
	if n < 2 {
		return 1
	}
	agree := 0
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if (a[i] == a[j]) == (b[i] == b[j]) {
				agree++
			}
		}
	}
	return float64(agree) / float64(total)
}

// AdjustedRandIndex computes the chance-corrected Rand index: 1 for
// identical partitions, about 0 for independent ones.
func AdjustedRandIndex(a, b []int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("kshape: label lengths %d vs %d", len(a), len(b)))
	}
	n := len(a)
	table := map[[2]int]float64{}
	rowSum := map[int]float64{}
	colSum := map[int]float64{}
	for i := 0; i < n; i++ {
		table[[2]int{a[i], b[i]}]++
		rowSum[a[i]]++
		colSum[b[i]]++
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	var cells, rows, cols float64
	for _, v := range table {
		cells += choose2(v)
	}
	for _, v := range rowSum {
		rows += choose2(v)
	}
	for _, v := range colSum {
		cols += choose2(v)
	}
	total := choose2(float64(n))
	if total == 0 {
		return 1
	}
	expected := rows * cols / total
	maxIdx := (rows + cols) / 2
	if maxIdx == expected {
		return 0
	}
	return (cells - expected) / (maxIdx - expected)
}
