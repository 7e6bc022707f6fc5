// Package run is the run-core layer of the repository: the experiment
// registry every driver self-registers into, the progress-event schema and
// Reporter interface threaded through the long evaluation loops, and the
// shared Options every experiment consumes.
//
// The package exists so that execution concerns — cooperative
// cancellation, run observability, and the catalogue of runnable
// experiments — live in one place instead of being re-implemented (or
// omitted) per command. cmd/tsbench is a thin shell over this package:
// its experiment list, "all" expansion, and usage text are all derived
// from the Registry, so they cannot drift from the drivers.
//
// Context policy: every driver has the signature
//
//	func(ctx context.Context, opts Options, rep Reporter) (Result, error)
//
// and must return promptly with ctx.Err() once the context is cancelled.
// The underlying engines (internal/par, internal/search, internal/eval,
// the embedding fits) observe cancellation at chunk-claim granularity, so
// "promptly" means within one dispatch chunk per worker.
package run

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Kind classifies a progress event.
type Kind int

const (
	// Started is emitted once when a driver begins, carrying the total
	// unit count when known.
	Started Kind = iota
	// Progress is emitted after each completed unit of work.
	Progress
	// Completed is emitted once when the driver finished successfully.
	Completed
)

// String renders the kind for logs.
func (k Kind) String() string {
	switch k {
	case Started:
		return "started"
	case Progress:
		return "progress"
	case Completed:
		return "completed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one progress notification from an experiment driver. Events
// carry counts, not wall-clock times; timing (elapsed, ETA) is derived by
// the consumer so that event streams stay deterministic.
type Event struct {
	Experiment string // registry name, e.g. "table5"
	Kind       Kind
	Done       int    // completed units so far
	Total      int    // total units, 0 when unknown
	Unit       string // what one unit is: "combos", "datasets", "bands", ...
	Detail     string // the unit just completed, e.g. "dtw/zscore"
}

// Reporter receives progress events. Implementations must tolerate calls
// from the single goroutine driving an experiment; drivers never emit
// concurrently for the same experiment.
type Reporter interface {
	Event(Event)
}

// Task is the driver-side helper that stamps events with the experiment
// name and unit, counts completed units, and emits the
// Started/Progress/Completed sequence. A Task constructed with a nil
// Reporter is a no-op, so drivers need no nil checks.
type Task struct {
	rep   Reporter
	exp   string
	unit  string
	total int
	done  int
}

// NewTask announces the start of an experiment with total units of work
// (0 when unknown) and returns the tracker for it.
func NewTask(rep Reporter, experiment, unit string, total int) *Task {
	t := &Task{rep: rep, exp: experiment, unit: unit, total: total}
	t.emit(Started, "")
	return t
}

// Step records one completed unit.
func (t *Task) Step(detail string) {
	t.done++
	t.emit(Progress, detail)
}

// Done announces successful completion.
func (t *Task) Done() {
	t.emit(Completed, "")
}

func (t *Task) emit(k Kind, detail string) {
	if t.rep == nil {
		return
	}
	t.rep.Event(Event{
		Experiment: t.exp, Kind: k,
		Done: t.done, Total: t.total,
		Unit: t.unit, Detail: detail,
	})
}

// ProgressPrinter renders events as single log lines with elapsed time
// and a naive linear ETA. It is what tsbench -progress installs, writing
// to stderr so progress never contaminates the golden-checked stdout.
type ProgressPrinter struct {
	mu     sync.Mutex
	w      io.Writer
	starts map[string]time.Time
	now    func() time.Time // test seam
}

// NewProgressPrinter returns a printer writing to w.
func NewProgressPrinter(w io.Writer) *ProgressPrinter {
	return &ProgressPrinter{w: w, starts: map[string]time.Time{}, now: time.Now}
}

// Event implements Reporter.
func (p *ProgressPrinter) Event(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	switch e.Kind {
	case Started:
		p.starts[e.Experiment] = now
		if e.Total > 0 {
			fmt.Fprintf(p.w, "[%s] started: %d %s\n", e.Experiment, e.Total, e.Unit)
		} else {
			fmt.Fprintf(p.w, "[%s] started\n", e.Experiment)
		}
	case Progress:
		elapsed := now.Sub(p.starts[e.Experiment])
		line := fmt.Sprintf("[%s] %d", e.Experiment, e.Done)
		if e.Total > 0 {
			line = fmt.Sprintf("[%s] %d/%d", e.Experiment, e.Done, e.Total)
		}
		if e.Unit != "" {
			line += " " + e.Unit
		}
		if e.Detail != "" {
			line += " (" + e.Detail + ")"
		}
		if e.Total > 0 && e.Done > 0 && e.Done < e.Total {
			eta := time.Duration(float64(elapsed) / float64(e.Done) * float64(e.Total-e.Done))
			line += fmt.Sprintf(" eta %v", eta.Round(time.Second))
		}
		fmt.Fprintf(p.w, "%s elapsed %v\n", line, elapsed.Round(time.Millisecond))
	case Completed:
		elapsed := now.Sub(p.starts[e.Experiment])
		delete(p.starts, e.Experiment)
		fmt.Fprintf(p.w, "[%s] completed in %v\n", e.Experiment, elapsed.Round(time.Millisecond))
	}
}
