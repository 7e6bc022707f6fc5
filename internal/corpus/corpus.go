// Package corpus implements the build-once prepared-state layer that
// separates *corpus build* from *query execute*: an immutable Snapshot
// holds a reference set together with every per-series state the search
// and evaluation engines would otherwise re-derive on each call —
// measure.Stateful preparations (FFT plans, norms, DP profiles),
// measure.GridStateful shared cores (one spectrum + self cross-correlation
// per series for a whole SINK gamma sweep), filled measure.LowerBounded
// bound contexts (the Lemire envelopes of the DTW cascade), per-series
// finiteness flags, and GRAIL approximate indexes.
//
// A Snapshot is built once, in parallel, under a cancellable context, and
// is immutable afterwards: every accessor returns state that is only ever
// read. Every search and eval path that reuses per-series state takes a
// snapshot as an optional argument (search.OneNNSnapshotCtx,
// search.LeaveOneOutGridCtx, search.KNNApproxSnapshotCtx, eval.MatrixCtx,
// eval.TuneSupervisedCtx) and produces results bitwise identical to inline
// preparation — the snapshot changes where per-series state comes from,
// never what is computed from it. A nil snapshot (or one that does not
// cover the series at hand) prepares everything inline.
//
// Snapshots are identified by a content Fingerprint (series count, total
// points, FNV-1a hash over lengths and raw float bits) so the Cache in
// this package can key snapshots and tuned-parameter results by corpus
// content rather than by pointer identity, surviving reloads of the same
// data across experiments and, later, across server requests.
package corpus

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/ann"
	"repro/internal/measure"
	"repro/internal/par"
)

// Fingerprint identifies corpus content: cheap structural fields plus an
// order-dependent FNV-1a hash over every series' length and raw float64
// bit patterns. Two corpora with equal fingerprints hold bitwise-equal
// series in the same order (up to hash collision); same-shape corpora with
// different values hash differently, so cache keys built from fingerprints
// do not alias across datasets of identical dimensions.
type Fingerprint struct {
	Count  int    // number of series
	Points int    // total number of values across all series
	Hash   uint64 // FNV-1a over lengths and float bits, in series order
}

func (f Fingerprint) String() string {
	return fmt.Sprintf("%dx%d/%016x", f.Count, f.Points, f.Hash)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvU64 folds one 64-bit word into an FNV-1a state byte by byte.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// hashSeries hashes one series: its length followed by the raw bit
// pattern of every value (so -0, NaN payloads, and infinities all
// distinguish content exactly as bitwise comparison would).
func hashSeries(x []float64) uint64 {
	h := uint64(fnvOffset)
	h = fnvU64(h, uint64(len(x)))
	for _, v := range x {
		h = fnvU64(h, math.Float64bits(v))
	}
	return h
}

// FingerprintOf computes the content fingerprint of a corpus. Per-series
// hashes are computed in parallel and folded in series order, so the
// result is deterministic and order-sensitive.
func FingerprintOf(series [][]float64) Fingerprint {
	fp := Fingerprint{Count: len(series)}
	hashes := make([]uint64, len(series))
	par.For(len(series), par.Workers(len(series)), func(i int) {
		hashes[i] = hashSeries(series[i])
	})
	h := uint64(fnvOffset)
	h = fnvU64(h, uint64(len(series)))
	for i, hi := range hashes {
		fp.Points += len(series[i])
		h = fnvU64(h, hi)
	}
	fp.Hash = h
	return fp
}

// ANNSpec selects one approximate retrieval index to build into the
// snapshot: the exact re-rank measure and the embed–index–rerank
// configuration. The builder hands the measure's already-materialized
// bound contexts and prepared states (when the measure also appears in
// Options.Measures) to the ANN build, so the exact-side state is shared
// rather than recomputed.
type ANNSpec struct {
	Measure measure.Measure
	Config  ann.Config
}

// Options configures a snapshot build: which measures' prepared states to
// materialize and which approximate indexes to build. The zero value
// builds only the fingerprint and finiteness flags.
type Options struct {
	// Measures lists the measures repeated queries will use. For each,
	// the builder materializes the state the search engine needs:
	// filled bound contexts for LowerBounded measures, prepared states
	// for Stateful ones (specialized from one shared family core for
	// GridStateful families), and the GridStateful cores themselves for
	// the tuning engine. Duplicate names build once.
	Measures []measure.Measure
	// ANN lists approximate indexes to build (GRAIL fit + parallel
	// transform + VP-tree over the representations). Duplicate measure
	// names build once.
	ANN []ANNSpec
}

// coreFamily is one GridStateful preparation family: the representative
// measure whose SharesPreparation anchors membership, and the shared
// candidate-independent core of every series.
type coreFamily struct {
	rep   measure.Measure
	cores []any
}

// Hits counts prepared-state lookups served by a snapshot, by section.
// The counters are cumulative over the snapshot's lifetime; each hit is
// one per-series state an engine did not have to recompute.
type Hits struct {
	Prepared int64 // Stateful prepared states served
	Bounds   int64 // filled bound contexts served
	Cores    int64 // GridStateful family cores served
}

// Total is the sum over all sections.
func (h Hits) Total() int64 { return h.Prepared + h.Bounds + h.Cores }

// Snapshot is an immutable prepared view of one corpus. All stored state
// is read-only after Build returns: engines must never Fill, Rebind, or
// otherwise mutate snapshot-owned contexts or states (the grid engine's
// envelope arena, which rebinds contexts in place, therefore never adopts
// snapshot-owned ones). The hit counters are the only mutable fields and
// are updated atomically.
type Snapshot struct {
	series [][]float64
	fp     Fingerprint
	finite []bool

	prep   map[string][]any                  // measure name -> per-series prepared state
	bounds map[string][]measure.BoundContext // measure name -> per-series filled contexts
	fams   []coreFamily                      // GridStateful family cores
	annIdx map[string]*ann.Index             // measure name -> approximate index

	hitPrepared atomic.Int64
	hitBounds   atomic.Int64
	hitCores    atomic.Int64
}

// BuildCtx builds a snapshot of series, computing every requested section
// in parallel over par.ForCtx. On a non-nil error the snapshot is
// unusable. The series slices are retained, not copied: the caller must
// treat them as frozen for the snapshot's lifetime (the fingerprint
// records the content at build time).
func BuildCtx(ctx context.Context, series [][]float64, opts Options) (*Snapshot, error) {
	n := len(series)
	s := &Snapshot{
		series: series,
		prep:   map[string][]any{},
		bounds: map[string][]measure.BoundContext{},
		annIdx: map[string]*ann.Index{},
	}
	s.fp = FingerprintOf(series)
	s.finite = make([]bool, n)
	if err := par.ForCtx(ctx, n, par.Workers(n), func(i int) {
		s.finite[i] = allFinite(series[i])
	}); err != nil {
		return nil, err
	}

	for _, m := range opts.Measures {
		name := m.Name()
		if _, ok := s.prep[name]; ok {
			continue
		}
		if _, ok := s.bounds[name]; ok {
			continue
		}
		switch mm := m.(type) {
		case measure.LowerBounded:
			ctxs := make([]measure.BoundContext, n)
			if err := par.ForCtx(ctx, n, par.Workers(n), func(i int) {
				c := mm.NewBoundContext(len(series[i]))
				c.Fill(series[i])
				ctxs[i] = c
			}); err != nil {
				return nil, err
			}
			s.bounds[name] = ctxs
		case measure.GridStateful:
			cores, err := s.familyCores(ctx, mm, series)
			if err != nil {
				return nil, err
			}
			prep := make([]any, n)
			if err := par.ForCtx(ctx, n, par.Workers(n), func(i int) {
				prep[i] = mm.CandidateState(cores[i])
			}); err != nil {
				return nil, err
			}
			s.prep[name] = prep
		case measure.Stateful:
			prep, err := prepareAll(ctx, mm, series)
			if err != nil {
				return nil, err
			}
			s.prep[name] = prep
		}
	}

	// ANN indexes build last so they can adopt the exact-side state the
	// measure loop above just materialized (bound contexts, prepared
	// states) instead of recomputing it.
	for _, spec := range opts.ANN {
		name := spec.Measure.Name()
		if _, ok := s.annIdx[name]; ok {
			continue
		}
		st := ann.ExactState{Bounds: s.bounds[name], Prep: s.prep[name]}
		ix, err := ann.BuildCtx(ctx, series, spec.Measure, spec.Config, st)
		if err != nil {
			return nil, err
		}
		s.annIdx[name] = ix
	}
	return s, nil
}

// familyCores returns the GridStateful cores shared by gs's family,
// building them on first use.
func (s *Snapshot) familyCores(ctx context.Context, gs measure.GridStateful, series [][]float64) ([]any, error) {
	for _, f := range s.fams {
		if gs.SharesPreparation(f.rep) {
			return f.cores, nil
		}
	}
	cores := make([]any, len(series))
	if err := par.ForCtx(ctx, len(series), par.Workers(len(series)), func(i int) {
		cores[i] = gs.GridPrepare(series[i])
	}); err != nil {
		return nil, err
	}
	s.fams = append(s.fams, coreFamily{rep: gs, cores: cores})
	return cores, nil
}

func prepareAll(ctx context.Context, sm measure.Stateful, series [][]float64) ([]any, error) {
	out := make([]any, len(series))
	err := par.ForCtx(ctx, len(series), par.Workers(len(series)), func(i int) {
		out[i] = sm.Prepare(series[i])
	})
	return out, err
}

func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Series returns the snapshot's backing series. Callers must not mutate.
func (s *Snapshot) Series() [][]float64 { return s.series }

// Len returns the number of series.
func (s *Snapshot) Len() int { return len(s.series) }

// Fingerprint returns the content fingerprint computed at build time.
func (s *Snapshot) Fingerprint() Fingerprint { return s.fp }

// Finite returns the per-series all-finite flags. Callers must not mutate.
func (s *Snapshot) Finite() []bool { return s.finite }

// Covers reports whether the snapshot was built over exactly these series
// rows (same backing arrays, same order). Engines consult it before using
// snapshot state, falling back to inline preparation on a mismatch, so a
// stale or foreign snapshot can cost speed but never correctness.
func (s *Snapshot) Covers(series [][]float64) bool {
	if s == nil || len(series) != len(s.series) {
		return false
	}
	for i := range series {
		if len(series[i]) != len(s.series[i]) {
			return false
		}
		if len(series[i]) > 0 && &series[i][0] != &s.series[i][0] {
			return false
		}
	}
	return true
}

// Prepared returns the per-series Stateful prepared states stored under
// m's name, or nil when the snapshot holds none. A family member's states
// are never substituted: they are candidate-dependent (only the
// GridStateful core is shared; see PreparedStates). A non-nil return
// counts one hit per series.
func (s *Snapshot) Prepared(m measure.Measure) []any {
	if s == nil {
		return nil
	}
	p := s.prep[m.Name()]
	if p != nil {
		s.hitPrepared.Add(int64(len(p)))
	}
	return p
}

// PreparedStates returns per-series prepared states for m from whatever
// the snapshot holds: stored Prepare outputs (Prepared), or states
// specialized on the fly from the measure's GridStateful family core —
// bitwise equivalent to Prepare by the GridStateful contract. It returns
// (nil, nil) when the snapshot holds neither; the error is non-nil only
// when specialization was cancelled.
func (s *Snapshot) PreparedStates(ctx context.Context, m measure.Measure) ([]any, error) {
	if s == nil {
		return nil, nil
	}
	if p := s.Prepared(m); p != nil {
		return p, nil
	}
	gs, ok := m.(measure.GridStateful)
	if !ok {
		return nil, nil
	}
	cores := s.GridCores(m)
	if cores == nil {
		return nil, nil
	}
	states := make([]any, len(cores))
	if err := par.ForCtx(ctx, len(cores), par.Workers(len(cores)), func(i int) {
		states[i] = gs.CandidateState(cores[i])
	}); err != nil {
		return nil, err
	}
	return states, nil
}

// BoundContexts returns the per-series filled bound contexts of m, or nil
// when the snapshot holds none. The contexts are read-only: they may be
// passed to LowerBound but never Fill'd or rebound. A non-nil return
// counts one hit per series.
func (s *Snapshot) BoundContexts(m measure.Measure) []measure.BoundContext {
	if s == nil {
		return nil
	}
	c := s.bounds[m.Name()]
	if c != nil {
		s.hitBounds.Add(int64(len(c)))
	}
	return c
}

// GridCores returns the shared GridStateful family cores valid for m, or
// nil when the snapshot holds none. A non-nil return counts one hit per
// series.
func (s *Snapshot) GridCores(m measure.Measure) []any {
	if s == nil {
		return nil
	}
	gs, ok := m.(measure.GridStateful)
	if !ok {
		return nil
	}
	for _, f := range s.fams {
		if gs.SharesPreparation(f.rep) {
			s.hitCores.Add(int64(len(f.cores)))
			return f.cores
		}
	}
	return nil
}

// ANNIndex returns the snapshot's approximate retrieval index for m, or
// nil when none was requested at build time. The index is immutable;
// callers query it through per-goroutine ann.Queriers.
func (s *Snapshot) ANNIndex(m measure.Measure) *ann.Index {
	if s == nil {
		return nil
	}
	return s.annIdx[m.Name()]
}

// Hits returns the cumulative prepared-state hit counters.
func (s *Snapshot) Hits() Hits {
	if s == nil {
		return Hits{}
	}
	return Hits{
		Prepared: s.hitPrepared.Load(),
		Bounds:   s.hitBounds.Load(),
		Cores:    s.hitCores.Load(),
	}
}

// Sections summarizes what the snapshot holds, for logs and tests.
func (s *Snapshot) Sections() (prepared, bounds, cores int) {
	if s == nil {
		return 0, 0, 0
	}
	return len(s.prep), len(s.bounds), len(s.fams)
}
