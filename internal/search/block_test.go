package search_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/elastic"
	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/search"
)

// TestLoneQueryScheduleFree pins the lone-query dispatch: a query over
// more than four blocks of references returns the same neighbor, the same
// distance bits and the same work counts at one, two and four workers, for
// a lower-bounded (DTW), a prepared (SINK), a panel (Euclidean) and an
// early-abandoning (MSM) measure, and the neighbor and distance bits of
// Querier.Query and of a batch holding the same query. Duplicates on both
// sides of each block boundary tie across blocks.
func TestLoneQueryScheduleFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	refs := randomSet(81, 4*search.ScanBlock+20, 48)
	for b := search.ScanBlock; b < len(refs); b += search.ScanBlock {
		refs[b] = append([]float64(nil), refs[b-1]...)
		refs[b+3] = append([]float64(nil), refs[b-5]...)
	}
	queries := randomSet(82, 3, 48)
	queries = append(queries, append([]float64(nil), refs[2*search.ScanBlock]...))
	for _, m := range []measure.Measure{
		elastic.DTW{DeltaPercent: 10}, kernel.SINK{Gamma: 5}, lockstep.Euclidean(), elastic.MSM{C: 0.5},
	} {
		ix, err := search.NewIndexSnapshotCtx(context.Background(), m, refs, nil)
		if err != nil {
			t.Fatal(err)
		}
		batch := oneNN(m, queries, refs)
		for i, x := range queries {
			var first search.Result
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got := oneNN(m, queries[i:i+1], refs)
				if procs == 1 {
					first = got
					continue
				}
				if got.Indices[0] != first.Indices[0] || math.Float64bits(got.Distances[0]) != math.Float64bits(first.Distances[0]) || got.Stats != first.Stats {
					t.Errorf("%s query %d: %d workers gave (%d, %v, %+v), one worker (%d, %v, %+v)",
						m.Name(), i, procs, got.Indices[0], got.Distances[0], got.Stats,
						first.Indices[0], first.Distances[0], first.Stats)
				}
			}
			qi, qd := ix.Querier().Query(x)
			for _, o := range []struct {
				route string
				idx   int
				dist  float64
			}{{"Query", qi, qd}, {"batch", batch.Indices[i], batch.Distances[i]}} {
				if o.idx != first.Indices[0] || math.Float64bits(o.dist) != math.Float64bits(first.Distances[0]) {
					t.Errorf("%s query %d: %s gave (%d, %v), the lone query (%d, %v)",
						m.Name(), i, o.route, o.idx, o.dist, first.Indices[0], first.Distances[0])
				}
			}
			if first.Stats.Pairs != int64(len(refs)) || first.Stats.LBPruned+first.Stats.FullDist != first.Stats.Pairs {
				t.Errorf("%s query %d: lone stats %+v over %d references", m.Name(), i, first.Stats, len(refs))
			}
		}
	}
}

// TestPanelLengthMismatchPanics pins the panel path's one decline: a
// reference of another length panics with the per-pair Distance's
// message, through a lone query, a batch and eval.Matrix, at one and two
// workers.
func TestPanelLengthMismatchPanics(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := lockstep.Euclidean()
	for _, lens := range [][3]int{{4, 3, 4}, {130, 129, 130}} {
		refs := make([][]float64, len(lens))
		for i, n := range lens {
			refs[i] = make([]float64, n)
		}
		q := make([]float64, lens[0])
		want := fmt.Sprintf("measure: series length mismatch %d vs %d", lens[0], lens[1])
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			for route, f := range map[string]func(){
				"lone":   func() { search.OneNNCtx(context.Background(), m, [][]float64{q}, refs) },
				"batch":  func() { search.OneNNCtx(context.Background(), m, [][]float64{q, q, q}, refs) },
				"matrix": func() { eval.Matrix(m, [][]float64{q, q}, refs) },
			} {
				if got := recovered(f); got != want {
					t.Errorf("lengths %v, %d workers, %s: recovered %v, want %q", lens, procs, route, got, want)
				}
			}
		}
	}
}

// recovered runs f and returns the value it panicked with, nil if none.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}
