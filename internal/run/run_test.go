package run

import (
	"context"
	"strings"
	"testing"
	"time"
)

func noopDriver(ctx context.Context, opts Options, rep Reporter) (Result, error) {
	return Result{Text: "ok"}, nil
}

func TestRegistryOrderAndLookup(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.Register(Experiment{Name: n, Description: n + " experiment", Run: noopDriver})
	}
	got := r.Names()
	want := []string{"zeta", "alpha", "mid"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q (registration order, not sorted)", i, got[i], want[i])
		}
	}
	if _, ok := r.Lookup("ALPHA"); !ok {
		t.Error("Lookup must be case-insensitive")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup resolved an unregistered name")
	}
}

func TestRegistryRegisterPanics(t *testing.T) {
	cases := map[string]Experiment{
		"empty name":     {Name: "", Run: noopDriver},
		"upper-case":     {Name: "Table2", Run: noopDriver},
		"nil driver":     {Name: "table2"},
		"duplicate name": {Name: "dup", Run: noopDriver},
	}
	for label, e := range cases {
		r := NewRegistry()
		r.Register(Experiment{Name: "dup", Run: noopDriver})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", label)
				}
			}()
			r.Register(e)
		}()
	}
}

func TestRegistryExpand(t *testing.T) {
	r := NewRegistry()
	r.Register(Experiment{Name: "a", Run: noopDriver})
	r.Register(Experiment{Name: "b", Run: noopDriver})

	names, err := r.Expand([]string{"b", "All", "B"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "a", "b", "b"}
	if len(names) != len(want) {
		t.Fatalf("Expand = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Expand = %v, want %v", names, want)
		}
	}

	if _, err := r.Expand([]string{"zzz"}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("Expand(zzz) err = %v, want unknown-experiment error", err)
	}
}

func TestRegistryUsageListsEveryExperimentAndAll(t *testing.T) {
	r := NewRegistry()
	r.Register(Experiment{Name: "short", Description: "a short one", Run: noopDriver})
	r.Register(Experiment{Name: "muchlongername", Description: "a long one", Run: noopDriver})
	u := r.Usage()
	for _, want := range []string{"short", "a short one", "muchlongername", "a long one", "all", "canonical order"} {
		if !strings.Contains(u, want) {
			t.Errorf("Usage missing %q:\n%s", want, u)
		}
	}
}

// recorder collects events for assertions.
type recorder struct{ events []Event }

func (r *recorder) Event(e Event) { r.events = append(r.events, e) }

func TestTaskEventSequence(t *testing.T) {
	rec := &recorder{}
	task := NewTask(rec, "table5", "combos", 2)
	task.Step("dtw/zscore")
	task.Step("msm/zscore")
	task.Done()

	want := []Event{
		{Experiment: "table5", Kind: Started, Done: 0, Total: 2, Unit: "combos"},
		{Experiment: "table5", Kind: Progress, Done: 1, Total: 2, Unit: "combos", Detail: "dtw/zscore"},
		{Experiment: "table5", Kind: Progress, Done: 2, Total: 2, Unit: "combos", Detail: "msm/zscore"},
		{Experiment: "table5", Kind: Completed, Done: 2, Total: 2, Unit: "combos"},
	}
	if len(rec.events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(rec.events), len(want), rec.events)
	}
	for i := range want {
		if rec.events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, rec.events[i], want[i])
		}
	}
}

func TestTaskNilReporterIsSafe(t *testing.T) {
	task := NewTask(nil, "x", "units", 3)
	task.Step("one")
	task.Done()
}

func TestProgressPrinterOutput(t *testing.T) {
	var sb strings.Builder
	p := NewProgressPrinter(&sb)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := base
	p.now = func() time.Time { return clock }

	p.Event(Event{Experiment: "table5", Kind: Started, Total: 4, Unit: "combos"})
	clock = base.Add(2 * time.Second)
	p.Event(Event{Experiment: "table5", Kind: Progress, Done: 1, Total: 4, Unit: "combos", Detail: "dtw/zscore"})
	clock = base.Add(8 * time.Second)
	p.Event(Event{Experiment: "table5", Kind: Completed, Done: 4, Total: 4, Unit: "combos"})

	got := sb.String()
	want := "[table5] started: 4 combos\n" +
		"[table5] 1/4 combos (dtw/zscore) eta 6s elapsed 2s\n" +
		"[table5] completed in 8s\n"
	if got != want {
		t.Errorf("printer output:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Started: "started", Progress: "progress", Completed: "completed", Kind(9): "kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestDefaultsAndArchives(t *testing.T) {
	opts := Options{}.Defaults()
	if opts.GridStride != 1 || opts.Archive == nil {
		t.Errorf("Defaults() = %+v", opts)
	}
	if n := len(DefaultArchive()); n != 24 {
		t.Errorf("DefaultArchive has %d datasets, want 24", n)
	}
}
