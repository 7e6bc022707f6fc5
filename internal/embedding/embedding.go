// Package embedding implements the 4 embedding measures of Section 9 of
// the paper: GRAIL (Nyström approximation of the SINK kernel), RWS (random
// warping series features approximating GAK), SPIRAL (a DTW-preserving
// embedding, realized here as landmark MDS over DTW), and SIDL
// (shift-invariant dictionary learning). Each learns a fixed-length
// representation (the paper uses length 100) from the training split; the
// downstream dissimilarity is the Euclidean distance between
// representations, giving O(d) comparisons after the one-off fit.
//
// SPIRAL and SIDL are research codes without canonical reference
// implementations; per DESIGN.md §3 they are realized as documented
// approximations that preserve the measured behaviour (cheap comparisons,
// accuracy below GRAIL).
package embedding

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/elastic"
	"repro/internal/kernel"
	"repro/internal/kshape"
	"repro/internal/linalg"
	"repro/internal/measure"
	"repro/internal/par"
)

// DefaultDim is the representation length used throughout the paper's
// embedding experiments.
const DefaultDim = 100

// Embedder learns a fixed-length similarity-preserving representation from
// a training set and maps arbitrary series into it.
type Embedder interface {
	// Name identifies the embedding in tables and registries.
	Name() string
	// Fit learns the representation from the training series. It must be
	// called before Transform and is deterministic for a fixed Embedder
	// configuration.
	Fit(train [][]float64)
	// Transform maps one series to its representation.
	Transform(x []float64) []float64
}

// ContextFitter is an optional Embedder extension: a fit whose heavy
// phases (Gram fills, landmark alignments) observe cancellation at the
// chunk granularity of internal/par. A cancelled fit returns ctx.Err()
// and leaves the embedder unfitted.
type ContextFitter interface {
	Embedder
	// FitCtx is Fit honoring ctx.
	FitCtx(ctx context.Context, train [][]float64) error
}

// Fit fits e, using the cancellable path when the embedder provides one.
// An uncancellable fit under an already-cancelled context still returns
// the context error without fitting, so callers get a uniform contract.
func Fit(ctx context.Context, e Embedder, train [][]float64) error {
	if cf, ok := e.(ContextFitter); ok {
		return cf.FitCtx(ctx, train)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	e.Fit(train)
	return nil
}

// euclidean is the comparison applied to representations.
func euclidean(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Measure adapts a fitted Embedder to the measure interface; it implements
// measure.Stateful so dissimilarity matrices transform each series once.
type Measure struct {
	E Embedder
}

// Name implements measure.Measure.
func (m Measure) Name() string { return m.E.Name() }

// Distance implements measure.Measure.
func (m Measure) Distance(x, y []float64) float64 {
	return euclidean(m.E.Transform(x), m.E.Transform(y))
}

// Prepare implements measure.Stateful.
func (m Measure) Prepare(x []float64) any { return m.E.Transform(x) }

// PreparedDistance implements measure.Stateful.
func (m Measure) PreparedDistance(px, py any) float64 {
	return euclidean(px.([]float64), py.([]float64))
}

// kshapeLandmarks clusters the training set into count clusters with
// k-Shape and returns the non-degenerate centroids as landmarks, the
// original GRAIL's dictionary-learning step. Empty clusters fall back to
// sampled series so the landmark count is preserved.
func kshapeLandmarks(train [][]float64, count int, seed int64) [][]float64 {
	if count > len(train) {
		count = len(train)
	}
	res := kshape.Run(train, kshape.Config{K: count, Seed: seed})
	fallback := sampleLandmarks(train, count, seed)
	out := make([][]float64, count)
	for c := 0; c < count; c++ {
		centroid := res.Centroids[c]
		degenerate := true
		for _, v := range centroid {
			if v != 0 {
				degenerate = false
				break
			}
		}
		if degenerate {
			out[c] = fallback[c]
		} else {
			out[c] = centroid
		}
	}
	return out
}

// sampleLandmarks picks count distinct training series deterministically.
func sampleLandmarks(train [][]float64, count int, seed int64) [][]float64 {
	if count > len(train) {
		count = len(train)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(train))[:count]
	out := make([][]float64, count)
	for i, j := range idx {
		out[i] = train[j]
	}
	return out
}

//
// ---- GRAIL ----
//

// GRAIL learns representations whose Euclidean comparison approximates the
// SINK kernel, via the Nyström method: a set of landmark series is chosen
// from the training set (k-Shape centroids when KShapeLandmarks is set,
// matching the original GRAIL; uniform sampling otherwise), the landmark
// Gram matrix is eigendecomposed, and each series is embedded as
// k(x, landmarks) * U * Lambda^{-1/2}.
type GRAIL struct {
	Gamma float64 // SINK kernel parameter (Table 4's grid)
	Dim   int     // representation length; 0 means DefaultDim
	Seed  int64
	// KShapeLandmarks selects landmarks as k-Shape cluster centroids (the
	// original GRAIL's dictionary construction) instead of sampled series.
	KShapeLandmarks bool

	sink      kernel.SINK
	landmarks []any // prepared SINK state per landmark
	basis     *linalg.Matrix
	fitted    bool
}

// Name implements Embedder.
func (g *GRAIL) Name() string { return fmt.Sprintf("grail[g=%g]", g.Gamma) }

func (g *GRAIL) dim() int {
	if g.Dim > 0 {
		return g.Dim
	}
	return DefaultDim
}

// Fit implements Embedder.
func (g *GRAIL) Fit(train [][]float64) {
	if err := g.FitCtx(context.Background(), train); err != nil {
		panic(fmt.Sprintf("embedding: GRAIL.Fit: impossible error %v", err))
	}
}

// FitCtx implements ContextFitter: the landmark preparation and the
// landmark Gram fill observe ctx. The fitted state is assigned only on
// success; a failed fit returns ctx.Err() and leaves the embedder
// unfitted, whatever it held before.
func (g *GRAIL) FitCtx(ctx context.Context, train [][]float64) error {
	if len(train) == 0 {
		panic("embedding: GRAIL.Fit with empty training set")
	}
	g.fitted = false
	sink := kernel.SINK{Gamma: g.Gamma}
	var landmarks [][]float64
	if g.KShapeLandmarks {
		landmarks = kshapeLandmarks(train, g.dim(), g.Seed)
	} else {
		landmarks = sampleLandmarks(train, g.dim(), g.Seed)
	}
	d := len(landmarks)
	// The prepared landmark states serve both the Gram fill and
	// Transform's projections.
	states := make([]any, d)
	if err := par.ForCtx(ctx, d, par.Workers(d), func(i int) {
		states[i] = sink.Prepare(landmarks[i])
	}); err != nil {
		return err
	}
	// Landmark Gram matrix of the normalized SINK kernel: unit diagonal,
	// the upper triangle from the prepared pair kernel, mirrored. The
	// pairs are independent, so they are dispatched in parallel like
	// SPIRAL's.
	w := linalg.NewMatrix(d, d)
	type pair struct{ i, j int }
	pairs := make([]pair, 0, d*(d-1)/2)
	for i := 0; i < d; i++ {
		w.Set(i, i, 1)
		for j := i + 1; j < d; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	if err := par.ForCtx(ctx, len(pairs), par.Workers(len(pairs)), func(t int) {
		p := pairs[t]
		k := 1 - sink.PreparedDistance(states[p.i], states[p.j])
		w.Set(p.i, p.j, k)
		w.Set(p.j, p.i, k)
	}); err != nil {
		return err
	}
	vals, vecs := linalg.EigenSym(w)
	// Basis columns U_j / sqrt(lambda_j) for the positive spectrum. The
	// negated guard keeps NaN eigenvalues (degenerate landmark input) in
	// the dropped null space instead of leaking NaN into every projection.
	basis := linalg.NewMatrix(d, d)
	for j := 0; j < d; j++ {
		if !(vals[j] > 1e-10) {
			continue // drop the null space (and a NaN spectrum)
		}
		inv := 1 / math.Sqrt(vals[j])
		for r := 0; r < d; r++ {
			basis.Set(r, j, vecs.At(r, j)*inv)
		}
	}
	g.sink, g.landmarks, g.basis, g.fitted = sink, states, basis, true
	return nil
}

// Transform implements Embedder.
func (g *GRAIL) Transform(x []float64) []float64 {
	if !g.fitted {
		panic("embedding: GRAIL.Transform before Fit")
	}
	px := g.sink.Prepare(x)
	e := make([]float64, len(g.landmarks))
	for i, pl := range g.landmarks {
		e[i] = 1 - g.sink.PreparedDistance(px, pl)
	}
	// z = e * basis (row vector times matrix).
	z := make([]float64, g.basis.Cols)
	for r, ev := range e {
		if ev == 0 {
			continue
		}
		row := g.basis.Row(r)
		for c, bv := range row {
			z[c] += ev * bv
		}
	}
	return z
}

//
// ---- RWS ----
//

// RWS embeds series against R random warping series: feature i is the
// alignment kernel value exp(-DTW(x, w_i)/(gamma^2 * len)) against a random
// series w_i of random length up to DMax, approximating the GAK feature
// space (Wu et al., AISTATS 2018).
type RWS struct {
	Gamma float64 // bandwidth of the random series and the feature kernel
	DMax  int     // maximum random-series length (the paper uses 25)
	Dim   int     // number of random series; 0 means DefaultDim
	Seed  int64

	series [][]float64
	fitted bool
}

// Name implements Embedder.
func (r *RWS) Name() string { return fmt.Sprintf("rws[g=%g]", r.Gamma) }

// Fit implements Embedder. The random series depend only on the
// configuration, not on the training data (RWS is data-independent), but
// Fit is still required for interface symmetry.
func (r *RWS) Fit([][]float64) {
	dim := r.Dim
	if dim <= 0 {
		dim = DefaultDim
	}
	dmax := r.DMax
	if dmax <= 0 {
		dmax = 25
	}
	rng := rand.New(rand.NewSource(r.Seed))
	sigma := r.Gamma
	if sigma <= 0 {
		sigma = 1
	}
	r.series = make([][]float64, dim)
	for i := range r.series {
		l := 1 + rng.Intn(dmax)
		w := make([]float64, l)
		for j := range w {
			w[j] = rng.NormFloat64() * sigma
		}
		r.series[i] = w
	}
	r.fitted = true
}

// Transform implements Embedder.
func (r *RWS) Transform(x []float64) []float64 {
	if !r.fitted {
		panic("embedding: RWS.Transform before Fit")
	}
	out := make([]float64, len(r.series))
	scale := 1 / math.Sqrt(float64(len(r.series)))
	for i, w := range r.series {
		d := elastic.UnbandedDTW(x, w)
		out[i] = scale * math.Exp(-d/float64(len(x)))
	}
	return out
}

//
// ---- SPIRAL ----
//

// SPIRAL learns a DTW-preserving embedding. The original solves a
// partial-observation matrix factorization; this implementation uses the
// landmark (Nyström) MDS construction over squared DTW distances, which
// preserves the same contract: ED between representations approximates DTW
// between the originals.
type SPIRAL struct {
	Dim  int // representation length; 0 means DefaultDim
	Seed int64

	landmarks [][]float64
	colMean   []float64      // column means of the squared landmark matrix
	proj      *linalg.Matrix // U_k * Lambda_k^{-1/2}, d x k
	fitted    bool
}

// Name implements Embedder.
func (s *SPIRAL) Name() string { return "spiral" }

// Fit implements Embedder.
func (s *SPIRAL) Fit(train [][]float64) {
	if err := s.FitCtx(context.Background(), train); err != nil {
		panic(fmt.Sprintf("embedding: SPIRAL.Fit: impossible error %v", err))
	}
}

// FitCtx implements ContextFitter: the landmark DTW pair matrix observes
// ctx. The fitted state is assigned only on success; a failed fit returns
// ctx.Err() and leaves the embedder unfitted, whatever it held before.
func (s *SPIRAL) FitCtx(ctx context.Context, train [][]float64) error {
	if len(train) == 0 {
		panic("embedding: SPIRAL.Fit with empty training set")
	}
	s.fitted = false
	dim := s.Dim
	if dim <= 0 {
		dim = DefaultDim
	}
	landmarks := sampleLandmarks(train, dim, s.Seed)
	d := len(landmarks)
	// Squared DTW distances between landmarks: the upper-triangle pairs
	// are independent, so they are dispatched in parallel; each pair's
	// recursion is untouched, so the matrix is bitwise the one the serial
	// double loop produced.
	sq := linalg.NewMatrix(d, d)
	type pair struct{ i, j int }
	pairs := make([]pair, 0, d*(d-1)/2)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	if err := par.ForCtx(ctx, len(pairs), par.Workers(len(pairs)), func(t int) {
		p := pairs[t]
		v := elastic.UnbandedDTW(landmarks[p.i], landmarks[p.j])
		sq.Set(p.i, p.j, v)
		sq.Set(p.j, p.i, v)
	}); err != nil {
		return err
	}
	// Double centering: B = -1/2 (sq - rowMean - colMean + totalMean).
	colMean := make([]float64, d)
	var total float64
	for j := 0; j < d; j++ {
		var cm float64
		for i := 0; i < d; i++ {
			cm += sq.At(i, j)
		}
		cm /= float64(d)
		colMean[j] = cm
		total += cm
	}
	total /= float64(d)
	b := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			b.Set(i, j, -0.5*(sq.At(i, j)-colMean[i]-colMean[j]+total))
		}
	}
	vals, vecs := linalg.EigenSym(b)
	// Out-of-sample projection: z = -1/2 * Lambda^{-1/2} U^T (delta - mu).
	// The negated guard drops a NaN spectrum (degenerate landmarks) along
	// with the null space instead of leaking NaN scale factors.
	proj := linalg.NewMatrix(d, d)
	for j := 0; j < d; j++ {
		if !(vals[j] > 1e-10) {
			continue
		}
		inv := 1 / math.Sqrt(vals[j])
		for r := 0; r < d; r++ {
			proj.Set(r, j, vecs.At(r, j)*inv)
		}
	}
	s.landmarks, s.colMean, s.proj, s.fitted = landmarks, colMean, proj, true
	return nil
}

// Transform implements Embedder.
func (s *SPIRAL) Transform(x []float64) []float64 {
	if !s.fitted {
		panic("embedding: SPIRAL.Transform before Fit")
	}
	d := len(s.landmarks)
	delta := make([]float64, d)
	for i, l := range s.landmarks {
		delta[i] = elastic.UnbandedDTW(x, l) - s.colMean[i]
	}
	z := make([]float64, s.proj.Cols)
	for r, dv := range delta {
		if dv == 0 {
			continue
		}
		row := s.proj.Row(r)
		for c, pv := range row {
			z[c] += -0.5 * dv * pv
		}
	}
	return z
}

//
// ---- SIDL ----
//

// SIDL learns a shift-invariant dictionary of short patterns from the
// training series (k-means-style updates over best-shift-aligned patches)
// and represents each series by its pooled activation against every atom:
// the maximum normalized correlation of the atom across all positions.
// Lambda acts as an activation shrinkage threshold and R sets the atom
// length as a fraction of the series length.
type SIDL struct {
	Lambda float64 // soft-threshold on activations
	R      float64 // atom length as a fraction of the series length
	Dim    int     // number of atoms; 0 means DefaultDim
	Iters  int     // dictionary update iterations; 0 means 3
	Seed   int64

	atoms  [][]float64
	fitted bool
}

// Name implements Embedder.
func (s *SIDL) Name() string { return fmt.Sprintf("sidl[l=%g,r=%g]", s.Lambda, s.R) }

// Fit implements Embedder.
func (s *SIDL) Fit(train [][]float64) {
	if len(train) == 0 {
		panic("embedding: SIDL.Fit with empty training set")
	}
	dim := s.Dim
	if dim <= 0 {
		dim = DefaultDim
	}
	iters := s.Iters
	if iters <= 0 {
		iters = 3
	}
	m := len(train[0])
	p := int(s.R * float64(m))
	if p < 2 {
		p = 2
	}
	if p > m {
		p = m
	}
	rng := rand.New(rand.NewSource(s.Seed))
	// Initialize atoms with random training patches.
	s.atoms = make([][]float64, dim)
	for i := range s.atoms {
		src := train[rng.Intn(len(train))]
		start := 0
		if len(src) > p {
			start = rng.Intn(len(src) - p + 1)
		}
		s.atoms[i] = normalizePatch(src[start : start+p])
	}
	// Alternate assignment (best atom per patch) and update (mean patch).
	for it := 0; it < iters; it++ {
		sums := make([][]float64, dim)
		counts := make([]int, dim)
		for i := range sums {
			sums[i] = make([]float64, p)
		}
		for _, x := range train {
			for start := 0; start+p <= len(x); start += p / 2 {
				patch := normalizePatch(x[start : start+p])
				best, bestCorr := -1, math.Inf(-1)
				for a, atom := range s.atoms {
					if c := linalg.Dot(patch, atom); c > bestCorr {
						bestCorr = c
						best = a
					}
				}
				for k := range patch {
					sums[best][k] += patch[k]
				}
				counts[best]++
			}
		}
		for a := range s.atoms {
			if counts[a] == 0 {
				continue // keep the unused atom as-is
			}
			for k := range sums[a] {
				sums[a][k] /= float64(counts[a])
			}
			s.atoms[a] = normalizePatch(sums[a])
		}
	}
	s.fitted = true
}

// normalizePatch scales a patch to zero mean and unit norm so atom
// correlations are comparable.
func normalizePatch(p []float64) []float64 {
	out := make([]float64, len(p))
	var mean float64
	for _, v := range p {
		mean += v
	}
	mean /= float64(len(p))
	var ss float64
	for i, v := range p {
		out[i] = v - mean
		ss += out[i] * out[i]
	}
	nrm := math.Sqrt(ss)
	if nrm == 0 {
		return out
	}
	for i := range out {
		out[i] /= nrm
	}
	return out
}

// Transform implements Embedder.
func (s *SIDL) Transform(x []float64) []float64 {
	if !s.fitted {
		panic("embedding: SIDL.Transform before Fit")
	}
	out := make([]float64, len(s.atoms))
	for a, atom := range s.atoms {
		p := len(atom)
		best := 0.0
		for start := 0; start+p <= len(x); start++ {
			patch := normalizePatch(x[start : start+p])
			if c := linalg.Dot(patch, atom); c > best {
				best = c
			}
		}
		// Soft-threshold the pooled activation.
		act := best - s.Lambda
		if act < 0 {
			act = 0
		}
		out[a] = act
	}
	return out
}

// All returns one instance of each embedding measure at the paper's
// recommended parameters, unfitted; the evaluation layer fits them on each
// dataset's training split.
func All(seed int64) []Embedder {
	return []Embedder{
		&GRAIL{Gamma: 5, Seed: seed},
		&RWS{Gamma: 1, DMax: 25, Seed: seed},
		&SPIRAL{Seed: seed},
		&SIDL{Lambda: 0.1, R: 0.25, Seed: seed},
	}
}

var (
	_ measure.Stateful = Measure{} // Measure provides the fast path
	_ ContextFitter    = (*GRAIL)(nil)
	_ ContextFitter    = (*SPIRAL)(nil)
)
