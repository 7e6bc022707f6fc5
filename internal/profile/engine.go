package profile

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/par"
)

// DefaultBlockRows is the default number of profile rows per dispatch
// block. Each block seeds its leading row independently (one FFT scan for
// dot-product measures), so smaller blocks buy cancellation granularity
// and load balance at the price of more seeds; 64 amortizes the seed to
// well under the streamed rows it unlocks while keeping hundreds of
// blocks in flight at engine scale.
const DefaultBlockRows = 64

// Options configures an Engine.
type Options struct {
	// Measure selects the profile distance; nil means ZNormEuclidean().
	Measure Measure
	// Workers caps dispatch parallelism; 0 means par.Workers over the
	// block count. 1 pins the serial path (allocation-free warm).
	Workers int
	// BlockRows overrides DefaultBlockRows. Each block streams its rows
	// from its own freshly seeded leading row, so the block size decides
	// which rows are seeded and which are streamed: values differ across
	// block sizes in the last bits (FFT seed against streamed update; the
	// nearest neighbors agree), while at a fixed block size results are
	// bitwise identical across worker counts.
	// BlockRows 1 with Workers 1 seeds every row with one FFT scan, which
	// is the STAMP formulation.
	BlockRows int
}

// Result is one computed profile join. A join cancelled before it
// finished returns ctx.Err() with its Result incomplete: discard it.
type Result struct {
	// Values[i] is the smallest distance from window i of the query
	// series to any admissible window of the target (+Inf when none —
	// every candidate excluded or non-finite), and Indices[i] the argmin
	// window offset (-1 when none).
	Values  []float64
	Indices []int
	Window  int
	// SelfJoin records whether the join was a self-join, and Exclusion
	// the applied trivial-match exclusion radius (0 for AB-joins).
	SelfJoin  bool
	Exclusion int
}

// Engine computes matrix-profile joins, reusing FFT plans, window
// statistics, and per-worker scratch across calls so warm joins of the
// same shape allocate nothing. An Engine is not safe for concurrent use;
// each concurrent join needs its own.
type Engine struct {
	opts    Options
	statsA  WindowStats
	statsB  WindowStats
	planA   fft.SlidingPlan // query-series spectrum, seeds the j = 0 column
	planB   fft.SlidingPlan // target-series spectrum, seeds block leading rows
	col0    []float64
	cbuf    []complex128
	scratch []*workerScratch
}

type workerScratch struct {
	cross []float64
	dist  []float64
	cbuf  []complex128
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.Measure == nil {
		opts.Measure = ZNormEuclidean()
	}
	if opts.BlockRows <= 0 {
		opts.BlockRows = DefaultBlockRows
	}
	return &Engine{opts: opts}
}

// SelfJoin computes the self-join matrix profile of t at window w: for
// every window, the distance to its nearest neighbor outside the
// trivial-match exclusion zone (radius max(1, w/2)). Blocks of rows are
// the cancellation point: a cancelled join returns ctx.Err() once the
// blocks in flight finish, and its Result is incomplete.
func (e *Engine) SelfJoin(ctx context.Context, t []float64, w int) (*Result, error) {
	res := &Result{}
	err := e.SelfJoinInto(ctx, t, w, res)
	return res, err
}

// SelfJoinInto is SelfJoin writing into a caller-owned Result whose
// backing slices are reused, so warm repeated joins allocate nothing.
func (e *Engine) SelfJoinInto(ctx context.Context, t []float64, w int, res *Result) error {
	return e.join(ctx, t, t, w, true, res)
}

// ABJoin computes the AB-join profile: for every window of a, the
// distance to its nearest window of b, with no exclusion zone (a and b
// are distinct series, so no match is trivial).
func (e *Engine) ABJoin(ctx context.Context, a, b []float64, w int) (*Result, error) {
	res := &Result{}
	err := e.ABJoinInto(ctx, a, b, w, res)
	return res, err
}

// ABJoinInto is ABJoin writing into a caller-owned Result.
func (e *Engine) ABJoinInto(ctx context.Context, a, b []float64, w int, res *Result) error {
	return e.join(ctx, a, b, w, false, res)
}

// SelfJoin is the package-level convenience over a throwaway engine.
func SelfJoin(ctx context.Context, t []float64, w int, opts Options) (*Result, error) {
	return New(opts).SelfJoin(ctx, t, w)
}

// ABJoin is the package-level convenience over a throwaway engine.
func ABJoin(ctx context.Context, a, b []float64, w int, opts Options) (*Result, error) {
	return New(opts).ABJoin(ctx, a, b, w)
}

// DistanceProfile returns the distance from query q to every window of t
// at window len(q), written into dst (reused when its capacity allows):
// row 0 of the AB-join of q against t. The row is seeded as every block's
// leading row is, so on finite input it is one FFT scan; a non-finite
// sample makes the windows that contain it NaN and leaves the others
// exact. One row has no cancellation point, so it takes no context.
func (e *Engine) DistanceProfile(t, q, dst []float64) []float64 {
	w := len(q)
	checkWindow(q, t, w)
	e.statsA.compute(q, w)
	e.statsB.compute(t, w)
	fftSeed := e.planSeed(t, w, &e.statsA, &e.statsB)
	// The joins' column-seed buffer holds this row's cross terms.
	e.col0 = resizeFloat(e.col0, len(t)-w+1)
	e.seedRow(e.col0, e.cbuf, q, t, 0, w, fftSeed)
	dst = resizeFloat(dst, len(e.col0))
	e.opts.Measure.DistanceRow(e.col0, dst, 0, &e.statsA, &e.statsB)
	return dst
}

// checkWindow panics unless 2 <= w <= min(len(a), len(b)).
func checkWindow(a, b []float64, w int) {
	if w < 2 {
		panic(fmt.Sprintf("profile: window %d < 2", w))
	}
	if w > len(a) || w > len(b) {
		panic(fmt.Sprintf("profile: window %d out of range for series lengths %d and %d",
			w, len(a), len(b)))
	}
}

// planSeed reports whether rows against target b are seeded by FFT and,
// when they are, plans b's spectrum. FFT seeding is only sound when every
// sample is finite: a single NaN/Inf poisons the whole padded transform,
// where direct summation confines it to the windows that contain it.
func (e *Engine) planSeed(b []float64, w int, sa, sb *WindowStats) bool {
	if !e.opts.Measure.DotCross() || sa.hasNF || sb.hasNF {
		return false
	}
	e.planB.Reset(b, w)
	if cap(e.cbuf) < e.planB.PaddedLen() {
		e.cbuf = make([]complex128, e.planB.PaddedLen())
	}
	return true
}

// seedRow fills cross with row i's cross terms against every window of b
// from scratch: one FFT sliding-dot scan (cbuf is its scratch) when
// fftSeed holds, direct sums otherwise.
func (e *Engine) seedRow(cross []float64, cbuf []complex128, a, b []float64, i, w int, fftSeed bool) {
	if fftSeed {
		e.planB.SlidingDots(a[i:i+w], cross, cbuf)
		return
	}
	for j := range cross {
		cross[j] = e.opts.Measure.InitCross(a, b, i, j, w)
	}
}

func (e *Engine) join(ctx context.Context, a, b []float64, w int, self bool, res *Result) error {
	checkWindow(a, b, w)
	m := e.opts.Measure
	rows := len(a) - w + 1
	cols := len(b) - w + 1

	e.statsA.compute(a, w)
	sa := &e.statsA
	sb := sa
	if !self {
		e.statsB.compute(b, w)
		sb = &e.statsB
	}

	excl := 0
	if self {
		excl = w / 2
		if excl < 1 {
			excl = 1
		}
	}

	res.Values = resizeFloat(res.Values, rows)
	res.Indices = resizeInt(res.Indices, rows)
	for i := 0; i < rows; i++ {
		res.Values[i] = math.Inf(1)
		res.Indices[i] = -1
	}
	res.Window = w
	res.SelfJoin = self
	res.Exclusion = excl

	fftSeed := e.planSeed(b, w, sa, sb)

	// Column seed: cross(a_i, b_0) for every row i — the j = 0 entry the
	// in-place diagonal recurrence cannot reach. It is b's leading window
	// scanned against a, so the self-join reuses the target spectrum and
	// only AB-joins plan the query side.
	e.col0 = resizeFloat(e.col0, rows)
	switch {
	case fftSeed && self:
		e.planB.SlidingDots(b[:w], e.col0, e.cbuf)
	case fftSeed:
		e.planA.Reset(a, w)
		if cap(e.cbuf) < e.planA.PaddedLen() {
			e.cbuf = make([]complex128, e.planA.PaddedLen())
		}
		e.planA.SlidingDots(b[:w], e.col0, e.cbuf[:e.planA.PaddedLen()])
	default:
		for i := 0; i < rows; i++ {
			e.col0[i] = m.InitCross(a, b, i, 0, w)
		}
	}

	blockRows := e.opts.BlockRows
	blocks := (rows + blockRows - 1) / blockRows
	workers := e.opts.Workers
	if workers <= 0 {
		workers = par.Workers(blocks)
	}
	if workers > blocks {
		workers = blocks
	}
	for len(e.scratch) < workers {
		e.scratch = append(e.scratch, &workerScratch{})
	}
	for _, ws := range e.scratch[:workers] {
		ws.cross = resizeFloat(ws.cross, cols)
		ws.dist = resizeFloat(ws.dist, cols)
		if fftSeed {
			if cap(ws.cbuf) < e.planB.PaddedLen() {
				ws.cbuf = make([]complex128, e.planB.PaddedLen())
			}
			ws.cbuf = ws.cbuf[:e.planB.PaddedLen()]
		}
	}

	if workers > 1 {
		return par.ForShardCtx(ctx, blocks, workers, func(worker, bi int) {
			e.runBlock(e.scratch[worker], bi, a, b, w, cols, fftSeed, sa, sb, res)
		})
	}
	// Inline dispatch: the parallel path's block order and per-row
	// arithmetic without the worker closure, so warm single-worker joins
	// stay allocation-free. Like par, it polls ctx between blocks.
	for bi := 0; bi < blocks; bi++ {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		e.runBlock(e.scratch[0], bi, a, b, w, cols, fftSeed, sa, sb, res)
	}
	return nil
}

// runBlock computes rows [bi*BlockRows, min(rows, (bi+1)*BlockRows)): the
// leading row seeded from scratch, every later row streamed with the O(1)
// diagonal update.
func (e *Engine) runBlock(ws *workerScratch, bi int, a, b []float64, w, cols int, fftSeed bool, sa, sb *WindowStats, res *Result) {
	m := e.opts.Measure
	r0 := bi * e.opts.BlockRows
	r1 := min(r0+e.opts.BlockRows, len(res.Values))
	cross := ws.cross
	e.seedRow(cross, ws.cbuf, a, b, r0, w, fftSeed)
	e.finalizeRow(r0, cross, ws.dist[:cols], sa, sb, res)

	repair := sa.hasNF || sb.hasNF
	for i := r0 + 1; i < r1; i++ {
		m.UpdateRow(cross, a, b, i, w, cols)
		cross[0] = e.col0[i]
		if repair {
			e.repairRow(cross, a, b, i, w, cols, sa, sb)
		}
		e.finalizeRow(i, cross, ws.dist[:cols], sa, sb, res)
	}
}

// repairRow recomputes streamed cross terms whose O(1) recurrence passed
// through non-finite samples: a cell is suspect when its own windows or
// its diagonal predecessor's contain NaN/Inf (the recurrence subtracts
// the dropped product, so Inf-Inf leaves NaN in an otherwise clean cell).
// Direct summation restores the exact value; clean cells are untouched,
// keeping the amortized cost O(1) per cell when poison is sparse.
func (e *Engine) repairRow(cross []float64, a, b []float64, i, w, cols int, sa, sb *WindowStats) {
	m := e.opts.Measure
	if sa.poisoned(i) || sa.poisoned(i-1) {
		for j := 1; j < cols; j++ {
			cross[j] = m.InitCross(a, b, i, j, w)
		}
		return
	}
	for j := 1; j < cols; j++ {
		if sb.poisoned(j) || sb.poisoned(j-1) {
			cross[j] = m.InitCross(a, b, i, j, w)
		}
	}
}

// finalizeRow maps row i's cross terms to distances and records the row
// minimum, skipping the self-join exclusion zone and NaN distances (which
// sanitize to +Inf downstream and can never be a nearest neighbor).
func (e *Engine) finalizeRow(i int, cross, dist []float64, sa, sb *WindowStats, res *Result) {
	e.opts.Measure.DistanceRow(cross, dist, i, sa, sb)
	lo, hi := 0, -1
	if res.SelfJoin {
		lo, hi = i-res.Exclusion, i+res.Exclusion
	}
	best, bestJ := math.Inf(1), -1
	for j, d := range dist {
		if j >= lo && j <= hi {
			continue
		}
		if d < best {
			best, bestJ = d, j
		}
	}
	if bestJ >= 0 {
		res.Values[i] = best
		res.Indices[i] = bestJ
	}
}
