package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/elastic"
	"repro/internal/measure"
	"repro/internal/search"
)

// probe collects one phase's per-layer work counts and, in a traced
// phase, its spans. Only the client goroutine touches it: the engines'
// own workers run inside the calls a span wraps.
type probe struct {
	counts map[string]float64
	tr     *tracer // nil when tracing is off
}

func newProbe(tr *tracer) *probe {
	return &probe{counts: map[string]float64{}, tr: tr}
}

func (p *probe) add(name string, v float64) { p.counts[name] += v }

func noop() {}

// span opens a span named after the layer about to be called and returns
// the function that closes it; with tracing off both cost nothing.
func (p *probe) span(layer string) func() {
	if p.tr == nil {
		return noop
	}
	return p.tr.begin(layer)
}

// addSearch records one exact search call from the counters its
// search.Result returns.
func (p *probe) addSearch(m measure.Measure, st search.Stats) {
	p.add("search.calls", 1)
	p.add("search.pairs", float64(st.Pairs))
	p.add("search.lb_pruned", float64(st.LBPruned))
	p.add("search.full_dist", float64(st.FullDist))
	p.addDist(m, st.FullDist)
}

// addGrid records one grid-tuning sweep from its search.GridStats.
func (p *probe) addGrid(m measure.Measure, st search.GridStats) {
	p.add("grid.candidates", float64(st.Candidates))
	p.add("grid.rows", float64(st.Rows))
	p.add("grid.warm_rows", float64(st.WarmRows))
	p.add("grid.repaired", float64(st.Repaired))
	p.add("grid.pairs", float64(st.Search.Pairs))
	p.add("grid.lb_pruned", float64(st.Search.LBPruned))
	p.add("grid.pair_lb", float64(st.Search.PairLB))
	p.add("grid.full_dist", float64(st.Search.FullDist))
	p.add("grid.prep_total", float64(st.PrepTotal))
	p.add("grid.prep_shared", float64(st.PrepShared))
	p.add("grid.warm_pairs", float64(st.WarmSearch.Pairs))
	p.add("grid.warm_pruned", float64(st.WarmSearch.LBPruned+st.WarmSearch.PairLB))
	p.addDist(m, st.Search.FullDist)
}

// addANN records one approximate query from its search.ApproxStats; m is
// the exact re-rank measure.
func (p *probe) addANN(m measure.Measure, st search.ApproxStats) {
	p.add("ann.calls", 1)
	p.add("ann.embed_dist", float64(st.EmbedDist))
	p.add("ann.exact", float64(st.Exact))
	p.add("ann.lb_pruned", float64(st.LBPruned))
	p.add("ann.fallbacks", float64(st.Fallbacks))
	p.addDist(m, st.Exact)
}

// addCache records the activity of one cache call from the difference of
// corpus.Cache.Stats before and after it.
func (p *probe) addCache(before, after corpus.CacheStats) {
	p.add("corpus.cache_hits", float64(after.Hits-before.Hits))
	p.add("corpus.cache_misses", float64(after.Misses-before.Misses))
	p.add("corpus.cache_evictions", float64(after.Evictions-before.Evictions))
}

// addDist counts full elastic distance computations per measure family:
// the base of elastic.est_ms.
func (p *probe) addDist(m measure.Measure, n int64) {
	switch m.(type) {
	case elastic.DTW:
		p.add("elastic.dtw.full_dist", float64(n))
	case elastic.MSM:
		p.add("elastic.msm.full_dist", float64(n))
	}
}

// span is one timed call into a layer. Spans nest strictly because only
// the client goroutine opens them.
type span struct {
	name       string
	req        int // the op that caused the span
	parent     int // index of the enclosing span, -1 for an op's root
	start, end time.Duration
	children   time.Duration // summed duration of direct children
}

// tracer keeps a phase's spans in memory; they are written out once the
// benchmark ends.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open spans
	req    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) func() {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: time.Since(t.origin)})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return func() {
		s := &t.spans[i]
		s.end = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
		if s.parent >= 0 {
			t.spans[s.parent].children += s.end - s.start
		}
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.name] += s.end - s.start - s.children
	}
	return out
}

// traceEvent is one complete event of the Chrome trace-event format,
// which chrome://tracing and Perfetto open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes every traced phase to path, one trace process
// per workload run.
func writeChromeTrace(path string, runs []*runResult) error {
	events := []traceEvent{}
	for pid, r := range runs {
		if r.tracer == nil {
			continue
		}
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": fmt.Sprintf("%s seed=%d", r.Workload, r.Seed)}})
		for _, s := range r.tracer.spans {
			events = append(events, traceEvent{
				Name: s.name, Ph: "X", Pid: pid + 1, Tid: 1,
				Ts:   float64(s.start) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				Args: map[string]any{"req": s.req, "parent": s.parent},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
