package kernel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/linalg"
	"repro/internal/par"
)

// gramTile is the square tile edge of the parallel Gram fill. A tile is
// the unit of work handed to a worker: 16x16 = 256 pairs amortize the
// dispatch counter while keeping the 2n-1 cross-correlation buffers of the
// tile's row plans hot in cache between consecutive pairs.
const gramTile = 16

// gramScratch is one worker's reusable pair buffers: the padded complex
// FFT scratch and the real cross-correlation output. Sized once per fill,
// so steady-state tile work performs no allocations.
type gramScratch struct {
	buf []complex128
	cc  []float64
}

// GramEngine computes all-pairs SINK kernel values over a fixed set of
// equal-length series. It prepares one padded FFT spectrum, norm, and
// self-kernel per series once (the same core as SINK.GridPrepare), then
// fills matrices in parallel cache-blocked tiles, spending one pointwise
// spectrum product + one inverse FFT + one sumExp per pair — where the
// naive per-pair build pays two forward and three inverse transforms plus
// three sumExp passes for every entry.
//
// Per-pair arithmetic is step-for-step the sequence SINK.PreparedDistance
// executes (fft.CrossCorrelateTo is bitwise-equal to CrossCorrelateWith,
// sumExp and normalized are the very same methods), so engine outputs are
// bitwise identical to the naive prepared path; tiling only changes the
// order in which independent pairs are visited, never the summation order
// within a pair.
type GramEngine struct {
	sink SINK
	n    int // series count
	m    int // series length

	plans []*fft.Plan
	norms []float64
	self  []float64 // unnormalized self-kernel per series

	scratch []gramScratch // per-worker pair buffers, grown lazily
}

// NewGramEngineCtx prepares the engine for the given series. All series
// must share one length (it panics on ragged input, like the underlying
// FFT plans would); zero-length series are legal and produce the
// degenerate distance 1 everywhere, matching SINK.Distance. It honors
// cancellation during the parallel per-series preparation; on a non-nil
// error the engine is unusable and must be discarded.
func NewGramEngineCtx(ctx context.Context, s SINK, series [][]float64) (*GramEngine, error) {
	e := &GramEngine{sink: s, n: len(series)}
	if e.n == 0 {
		return e, nil
	}
	e.m = len(series[0])
	for i, x := range series {
		if len(x) != e.m {
			panic(fmt.Sprintf("kernel: GramEngine ragged input: series %d has length %d, want %d",
				i, len(x), e.m))
		}
	}
	e.plans = make([]*fft.Plan, e.n)
	e.norms = make([]float64, e.n)
	e.self = make([]float64, e.n)
	// The per-series core is the bitwise computation of SINK.GridPrepare
	// (norm accumulation order included), parallelized across series.
	if err := par.ForCtx(ctx, e.n, par.Workers(e.n), func(i int) {
		x := series[i]
		var ss float64
		for _, v := range x {
			ss += v * v
		}
		e.norms[i] = math.Sqrt(ss)
		e.plans[i] = fft.NewPlan(x)
		e.self[i] = s.sumExp(e.plans[i].CrossCorrelateWith(e.plans[i]), e.norms[i]*e.norms[i])
	}); err != nil {
		return nil, err
	}
	return e, nil
}

// Len returns the number of series the engine was built over.
func (e *GramEngine) Len() int { return e.n }

// arena returns per-worker scratch for workers workers, growing the pool
// and its buffers only when a larger fill than any before runs.
func (e *GramEngine) arena(workers int) []gramScratch {
	if len(e.scratch) < workers {
		grown := make([]gramScratch, workers)
		copy(grown, e.scratch)
		e.scratch = grown
	}
	padded, ccLen := 0, 0
	if e.n > 0 {
		padded = e.plans[0].PaddedLen()
	}
	if e.m > 0 {
		ccLen = 2*e.m - 1
	}
	sc := e.scratch[:workers]
	for w := range sc {
		if cap(sc[w].buf) < padded {
			sc[w].buf = make([]complex128, padded)
		}
		if cap(sc[w].cc) < ccLen {
			sc[w].cc = make([]float64, ccLen)
		}
	}
	return sc
}

// pairDistance computes the normalized SINK dissimilarity of series i and
// j using sc's buffers. The statement sequence mirrors
// SINK.PreparedDistance exactly; only the buffer provenance differs.
func (e *GramEngine) pairDistance(i, j int, sc *gramScratch) float64 {
	cc := e.plans[i].CrossCorrelateTo(e.plans[j], sc.cc, sc.buf)
	kxy := e.sink.sumExp(cc, e.norms[i]*e.norms[j])
	return normalized(kxy, e.self[i], e.self[j])
}

// FillDistancesCtx writes the full directed n-by-n dissimilarity matrix
// into rows (rows[i][j] = d(series i, series j), raw — the caller
// sanitizes). Both triangles are computed independently, cell for cell,
// because SINK does not declare exact symmetry: the FFT product for
// (i, j) conjugates the opposite spectrum from (j, i), so mirrored values
// could differ in the last bits from what the per-pair path returns.
// Tiles are dispatched over internal/par with one scratch arena entry per
// worker. A cancelled fill stops within one tile per worker and returns
// ctx.Err() with rows partially written (the caller must discard them).
// A nil ctx never cancels, and unlike context.Background it costs the
// hot path no escaping allocation per fill.
func (e *GramEngine) FillDistancesCtx(ctx context.Context, rows [][]float64) error {
	if e.n == 0 {
		return nil
	}
	if len(rows) != e.n {
		panic(fmt.Sprintf("kernel: FillDistancesCtx got %d rows, want %d", len(rows), e.n))
	}
	nt := (e.n + gramTile - 1) / gramTile
	tiles := nt * nt
	workers := par.Workers(tiles)
	sc := e.arena(workers)
	return par.ForShardCtx(ctx, tiles, workers, func(worker, t int) {
		s := &sc[worker]
		iLo := (t / nt) * gramTile
		jLo := (t % nt) * gramTile
		iHi, jHi := iLo+gramTile, jLo+gramTile
		if iHi > e.n {
			iHi = e.n
		}
		if jHi > e.n {
			jHi = e.n
		}
		for i := iLo; i < iHi; i++ {
			row := rows[i]
			for j := jLo; j < jHi; j++ {
				row[j] = e.pairDistance(i, j, s)
			}
		}
	})
}

// GramCtx returns the normalized SINK kernel Gram matrix K with K[i][j] =
// 1 - d(series i, series j), unit diagonal, computed over upper-triangle
// tiles and mirrored — the construction GRAIL's Nyström step uses (which
// symmetrized the kernel from the upper triangle before this engine
// existed, so mirroring preserves its exact values). A tile's mirror
// writes land in strictly-lower tiles no worker owns, so the parallel
// fill is race-free. On a non-nil error the returned matrix is partial
// and must be discarded.
func (e *GramEngine) GramCtx(ctx context.Context) (*linalg.Matrix, error) {
	g := linalg.NewMatrix(e.n, e.n)
	if e.n == 0 {
		return g, nil
	}
	nt := (e.n + gramTile - 1) / gramTile
	// Flat work list of upper-triangle tiles (ti <= tj).
	tiles := make([][2]int, 0, nt*(nt+1)/2)
	for ti := 0; ti < nt; ti++ {
		for tj := ti; tj < nt; tj++ {
			tiles = append(tiles, [2]int{ti, tj})
		}
	}
	workers := par.Workers(len(tiles))
	sc := e.arena(workers)
	err := par.ForShardCtx(ctx, len(tiles), workers, func(worker, t int) {
		s := &sc[worker]
		iLo, jLo := tiles[t][0]*gramTile, tiles[t][1]*gramTile
		iHi, jHi := iLo+gramTile, jLo+gramTile
		if iHi > e.n {
			iHi = e.n
		}
		if jHi > e.n {
			jHi = e.n
		}
		for i := iLo; i < iHi; i++ {
			jStart := jLo
			if diag := i + 1; jStart < diag {
				jStart = diag
			}
			if jLo <= i && i < jHi {
				// Only the tile containing (i, i) owns the diagonal write.
				g.Data[i*e.n+i] = 1
			}
			for j := jStart; j < jHi; j++ {
				k := 1 - e.pairDistance(i, j, s)
				g.Data[i*e.n+j] = k
				g.Data[j*e.n+i] = k
			}
		}
	})
	return g, err
}

// PreparedStates returns per-series prepared SINK states equivalent —
// bitwise, by the GridStateful contract — to SINK.Prepare on each series,
// so fitted embeddings can keep projecting queries against landmarks
// through PreparedDistance without re-deriving any spectra.
func (e *GramEngine) PreparedStates() []any {
	out := make([]any, e.n)
	for i := range out {
		out[i] = &sinkPrepared{plan: e.plans[i], norm: e.norms[i], self: e.self[i]}
	}
	return out
}
