package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/run"
)

// -update-golden regenerates testdata/golden/*.golden from the current
// code. Run via `make golden` after an intentional output change and commit
// the diff; the test then pins every experiment's rendered output.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden experiment outputs")

// goldenArchive is the shared fixed-seed archive of the golden runs: small
// enough that all experiments finish quickly, large enough that every
// experiment exercises its full code path. Built once per test binary.
var goldenArchive = sync.OnceValue(func() []*dataset.Dataset {
	return dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 1, Count: 8, MaxLength: 64, MaxTrain: 10, MaxTest: 12,
	})
})

func goldenOpts() experiments.Options {
	return experiments.Options{GridStride: 4, Archive: goldenArchive()}
}

// durationRE matches Go time.Duration strings ("1.234ms", "12.5µs", "0s",
// "1m2s") without touching plain decimal columns like accuracies.
var durationRE = regexp.MustCompile(`\b(\d+h)?(\d+m)?\d+(\.\d+)?(ns|µs|us|ms|s)\b`)

// ratioRE matches the pruning and tuning tables' speedup column, which sits
// between the two scrubbed duration columns and is as volatile as they are.
var ratioRE = regexp.MustCompile(`(<DUR> <DUR> )\d+(\.\d+)?`)

// warmPruneRE matches the tuning table's warm-prune-rate column, directly
// after the speedup: its counters come from racing per-worker cutoffs, so
// the value depends on scheduling and core count.
var warmPruneRE = regexp.MustCompile(`(<RATIO> )\d+(\.\d+)?`)

// scrub canonicalizes an experiment's rendered output: wall-clock values
// become <DUR> (collapsing the alignment padding around them), the pruning
// and tuning speedups become <RATIO>, the tuning warm-prune rate becomes
// <RATE>, and the figure9 body — sorted at runtime by measured inference
// time — is re-sorted lexicographically so the golden file does not depend
// on machine speed.
func scrub(name, out string) string {
	lines := strings.Split(out, "\n")
	for i, ln := range lines {
		if !durationRE.MatchString(ln) {
			continue
		}
		ln = durationRE.ReplaceAllString(ln, "<DUR>")
		// The fixed-width columns pad real durations of varying length, so
		// collapse runs of spaces on the lines we rewrote.
		ln = strings.Join(strings.Fields(ln), " ")
		ln = ratioRE.ReplaceAllString(ln, "${1}<RATIO>")
		if name == "tuning" {
			ln = warmPruneRE.ReplaceAllString(ln, "${1}<RATE>")
		}
		lines[i] = ln
	}
	if name == "figure9" && len(lines) > 2 {
		body := lines[2:]
		sort.Strings(body)
		// Sorting floats empty trailing lines to the front; rebuild without
		// them and re-append the final newline split artifact.
		trimmed := body[:0]
		for _, ln := range body {
			if ln != "" {
				trimmed = append(trimmed, ln)
			}
		}
		lines = append(lines[:2], trimmed...)
		lines = append(lines, "")
	}
	return strings.Join(lines, "\n")
}

// TestGoldenExperimentOutputs runs every registered tsbench experiment
// through the same dispatcher main uses, on a fixed-seed archive, and
// compares the scrubbed rendering against the committed golden file. Any
// unintentional change to a measure, an engine, or a renderer shows up as a
// readable text diff; intentional changes are recorded with -update-golden.
func TestGoldenExperimentOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiment sweep is slow in short mode")
	}
	opts := goldenOpts()
	for _, name := range run.Default.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := runExperiment(context.Background(), name, opts, nil)
			if err != nil {
				t.Fatalf("runExperiment(%s): %v", name, err)
			}
			got := scrub(name, res.Text)
			path := filepath.Join("testdata", "golden", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `make golden` to create it): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s\n--- got ---\n%s\n--- want ---\n%s\n--- first divergence ---\n%s",
					path, got, want, firstDiff(got, string(want)))
			}
		})
	}
}

// TestGoldenScrubStability pins the scrubber itself: durations of varying
// widths and orderings must canonicalize identically, so golden files are
// machine-independent.
func TestGoldenScrubStability(t *testing.T) {
	a := "Pruning ablation: exhaustive matrix vs pruned 1-NN engine (DTW)\n" +
		"band   exact        pruned       speedup  acc\n" +
		"5      1.234ms      567µs        2.18     0.9583\n"
	b := "Pruning ablation: exhaustive matrix vs pruned 1-NN engine (DTW)\n" +
		"band   exact        pruned       speedup  acc\n" +
		"5      112.034ms    41ms         2.73     0.9583\n"
	if scrub("pruning", a) != scrub("pruning", b) {
		t.Errorf("scrub is machine-dependent:\n%q\n%q", scrub("pruning", a), scrub("pruning", b))
	}
	if s := scrub("pruning", a); strings.Contains(s, "1.234ms") || strings.Contains(s, "2.18") {
		t.Errorf("volatile values survived scrubbing: %q", s)
	}
	if s := scrub("pruning", a); !strings.Contains(s, "0.9583") {
		t.Errorf("deterministic accuracy was scrubbed away: %q", s)
	}

	c := "Tuning ablation: per-candidate loop vs shared-state grid engine\n" +
		"grid   cands  naive        engine       speedup  warmPrune  repaired  agree\n" +
		"dtw    6      1.234s       541ms        2.28     0.61       0         true\n"
	d := "Tuning ablation: per-candidate loop vs shared-state grid engine\n" +
		"grid   cands  naive        engine       speedup  warmPrune  repaired  agree\n" +
		"dtw    6      410ms        201ms        2.04     0.58       0         true\n"
	if scrub("tuning", c) != scrub("tuning", d) {
		t.Errorf("tuning scrub is machine-dependent:\n%q\n%q", scrub("tuning", c), scrub("tuning", d))
	}
	if s := scrub("tuning", c); strings.Contains(s, "2.28") || strings.Contains(s, "0.61") {
		t.Errorf("volatile tuning values survived scrubbing: %q", s)
	}
	if s := scrub("tuning", c); !strings.Contains(s, "<RATE> 0 true") {
		t.Errorf("deterministic tuning columns were scrubbed away: %q", s)
	}
}

// firstDiff renders the first differing line pair for quicker triage of a
// long golden mismatch.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
	return "(no line-level difference)"
}
