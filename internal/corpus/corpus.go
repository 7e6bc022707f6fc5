// Package corpus implements the build-once prepared-state layer that
// separates *corpus build* from *query execute*: an immutable Snapshot
// holds a reference set together with the per-series state the search
// and evaluation engines would otherwise re-derive on each call — one
// measure.Prepared per measure (the filled measure.LowerBounded bound
// contexts of the DTW cascade, the measure.Stateful preparations of SINK
// and the other kernels), built by measure.PrepareCtx, and GRAIL
// approximate indexes. State is keyed by measure name: a snapshot serves
// exactly the measures it was built for.
//
// A Snapshot is built once, in parallel, under a cancellable context, and
// is immutable afterwards: every accessor returns state that is only ever
// read. Every search and eval path that reuses per-series state takes a
// snapshot as an optional argument (search.OneNNSnapshotCtx,
// search.LeaveOneOutGridCtx, search.KNNApproxSnapshotCtx,
// eval.TuneSupervisedCtx) and produces results bitwise identical to inline
// preparation: a snapshot's State and an inline measure.PrepareCtx are
// the same value, so the snapshot changes where per-series state comes
// from, never what is computed from it. A nil snapshot (or one that does
// not cover the series at hand) prepares everything inline.
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
// configuration. When the measure also appears in Options.Measures, the
// ANN build adopts the snapshot's state for it instead of preparing its
// own.
type ANNSpec struct {
	Measure measure.Measure
	Config  ann.Config
}

// Options configures a snapshot build: which measures' prepared states to
// materialize and which approximate indexes to build. The zero value
// builds only the fingerprint.
type Options struct {
	// Measures lists the measures repeated queries will use. For each,
	// BuildCtx stores measure.PrepareCtx's state: filled bound contexts
	// for LowerBounded measures and prepared states for Stateful ones.
	// Duplicate names build once.
	Measures []measure.Measure
	// ANN lists approximate indexes to build (GRAIL fit + parallel
	// transform + VP-tree over the representations). Duplicate measure
	// names build once.
	ANN []ANNSpec
}

// Hits counts per-series states served by a snapshot, by kind. The
// counters are cumulative over the snapshot's lifetime; each hit is one
// per-series state an engine did not have to recompute.
type Hits struct {
	Prepared int64 // Stateful prepared states served
	Bounds   int64 // filled bound contexts served
}

// Total is the sum over both kinds.
func (h Hits) Total() int64 { return h.Prepared + h.Bounds }

// Snapshot is an immutable prepared view of one corpus. All stored state
// is read-only after Build returns: engines must never Fill, Rebind, or
// otherwise mutate snapshot-owned contexts or states (the grid engine's
// envelope arena, which rebinds contexts in place, therefore never adopts
// snapshot-owned ones). The hit counters are the only mutable fields and
// are updated atomically.
type Snapshot struct {
	series [][]float64
	fp     Fingerprint

	state  map[string]measure.Prepared // measure name -> per-series state
	annIdx map[string]*ann.Index       // measure name -> approximate index

	hitPrepared atomic.Int64
	hitBounds   atomic.Int64
}

// BuildCtx builds a snapshot of series: the fingerprint, one
// measure.PrepareCtx per requested measure and the requested ANN indexes,
// each in parallel over par.ForCtx. On a non-nil error the snapshot is
// unusable. The series slices are retained, not copied: the caller must
// treat them as frozen for the snapshot's lifetime (the fingerprint
// records the content at build time).
func BuildCtx(ctx context.Context, series [][]float64, opts Options) (*Snapshot, error) {
	s := &Snapshot{
		series: series,
		fp:     FingerprintOf(series),
		state:  map[string]measure.Prepared{},
		annIdx: map[string]*ann.Index{},
	}
	for _, m := range opts.Measures {
		if _, ok := s.state[m.Name()]; ok {
			continue
		}
		p, err := measure.PrepareCtx(ctx, m, series)
		if err != nil {
			return nil, err
		}
		s.state[m.Name()] = p
	}

	// ANN indexes build last so they can adopt the state the measure loop
	// above just built; a measure it did not build gets the zero Prepared,
	// which the ANN build prepares inline.
	for _, spec := range opts.ANN {
		name := spec.Measure.Name()
		if _, ok := s.annIdx[name]; ok {
			continue
		}
		ix, err := ann.BuildCtx(ctx, series, spec.Measure, spec.Config, s.state[name])
		if err != nil {
			return nil, err
		}
		s.annIdx[name] = ix
	}
	return s, nil
}

// Fingerprint returns the content fingerprint computed at build time.
func (s *Snapshot) Fingerprint() Fingerprint { return s.fp }

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

// State returns the per-series state stored under m's name, or the zero
// Prepared when the snapshot holds none (a nil snapshot holds none). State
// is never substituted across names: it may depend on every parameter of
// the measure. The returned state is read-only: bound contexts may be
// passed to LowerBound but never Fill'd or rebound. Each returned slice
// counts one hit per series.
func (s *Snapshot) State(m measure.Measure) measure.Prepared {
	if s == nil {
		return measure.Prepared{}
	}
	p := s.state[m.Name()]
	if p.States != nil {
		s.hitPrepared.Add(int64(len(p.States)))
	}
	if p.Bounds != nil {
		s.hitBounds.Add(int64(len(p.Bounds)))
	}
	return p
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
	}
}
