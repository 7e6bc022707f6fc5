package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json this test
// checks the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// deterministicCounts are per-layer counts that two runs on the same seed
// must repeat exactly. The grid engine's prunes and distance counts are
// left out: its symmetric leave-one-out pass shares cutoffs between the
// rows a worker happens to claim.
var deterministicCounts = []string{
	"dataset.load_calls", "norm.calls",
	"search.calls", "search.pairs", "search.lb_pruned", "search.full_dist",
	"grid.candidates", "grid.rows", "grid.warm_rows", "grid.pairs", "grid.prep_total", "grid.warm_pairs",
	"corpus.build_calls", "corpus.cache_hits", "corpus.cache_misses", "corpus.cache_evictions",
	"corpus.snapshot_hits",
	"ann.calls", "ann.embed_dist", "ann.exact", "ann.lb_pruned", "ann.fallbacks",
}

// smokeRun runs every workload once at smoke scale, with the four flags
// a run of BENCHMARK.json's command is given.
func smokeRun(t *testing.T, trace string) (resultLine, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"-scale", "smoke", "-dir", t.TempDir(),
		"--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}

	untraced, text := smokeRun(t, "0")
	if len(untraced.Metrics) != len(workloads)*len(bench.EndToEnd) {
		t.Errorf("%d end-to-end metrics printed, want %d", len(untraced.Metrics), len(workloads)*len(bench.EndToEnd))
	}
	for _, w := range workloads {
		for _, m := range bench.EndToEnd {
			got, ok := untraced.Metrics[w.name+"/"+m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s printed=%v unit %q, want %q", w.name, m.Name, ok, got.Unit, m.Unit)
			}
			if ok && got.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, got.Value)
			}
		}
	}
	zeros := 0
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "fail_ratio" && f[1] == "0" && f[2] == "ratio" {
			zeros++
		}
	}
	if zeros != len(workloads) {
		t.Errorf("fail_ratio 0 printed for %d of %d workloads:\n%s", zeros, len(workloads), text)
	}

	traced, _ := smokeRun(t, "1")
	again, _ := smokeRun(t, "1")
	if len(traced.Metrics) != len(workloads)*len(bench.PerLayer) {
		t.Errorf("%d per-layer metrics printed, want %d", len(traced.Metrics), len(workloads)*len(bench.PerLayer))
	}
	for _, w := range workloads {
		for _, m := range bench.PerLayer {
			if got, ok := traced.Metrics[w.name+"/"+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: %s printed=%v unit %q, want %q", w.name, m.Name, ok, got.Unit, m.Unit)
			}
		}
		for _, name := range deterministicCounts {
			key := w.name + "/" + name
			if a, b := traced.Metrics[key].Value, again.Metrics[key].Value; a != b {
				t.Errorf("%s differs between same-seed runs: %v vs %v", key, a, b)
			}
		}
		if cov := traced.Metrics[w.name+"/trace.self_coverage"].Value; cov < 0.95 {
			t.Errorf("%s: layer self times cover %.3f of the traced wall time", w.name, cov)
		}
	}
	// Each corpus of ingest-churn must miss exactly once per pass: the
	// request order keeps the resident corpora in the cache.
	corpora := float64(scales["smoke"].churnCorpora)
	for _, name := range []string{"corpus.cache_misses", "corpus.cache_evictions", "corpus.build_calls"} {
		if got := traced.Metrics["ingest-churn/"+name].Value; got != corpora {
			t.Errorf("ingest-churn %s = %v per pass, want %v", name, got, corpora)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) is
	// [2.75, 5.5, 8.25].
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}
