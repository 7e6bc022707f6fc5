// Command benchcompare diffs two benchjson files (see cmd/benchjson) in
// the style of benchstat: one line per benchmark with the old and new
// ns/op and the delta, then one indented line per b.ReportMetric value
// with both values. It exits non-zero when any benchmark present in both
// files slowed down by more than -threshold percent, or when a work
// metric of such a benchmark differs at all, so it can gate CI on the
// committed BENCH_* baselines. A work metric is one whose unit does not
// start with "ns/", such as DP cells per distance (cells/dist): it counts
// what the code computes, which the host's speed cannot move. Timing
// metrics (ns/dist) are reported only.
//
// Benchmarks and metrics present in only one file are reported but never
// fail the comparison — renames and additions are not regressions.
//
// Usage:
//
//	go test -bench Hotloops -benchmem ./internal/elastic | benchjson -o new.json
//	benchcompare -old BENCH_hotloops.json -new new.json -threshold 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Record mirrors cmd/benchjson's output schema.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Row is one comparison line. Delta is the relative ns/op change in
// percent (positive = slower); Missing marks benchmarks present in only
// one of the two files. Metrics compares the reported metrics of a
// benchmark present in both, by unit.
type Row struct {
	Name     string
	Old, New float64 // ns/op; 0 when Missing
	Delta    float64
	Missing  string // "" | "old" | "new"
	Metrics  []Metric
}

// Metric is one b.ReportMetric unit of a benchmark present in both files.
type Metric struct {
	Unit     string
	Old, New float64 // 0 when Missing
	Missing  string  // "" | "old" | "new"
}

// Work reports whether the metric counts work rather than time: its unit
// does not start with "ns/".
func (m Metric) Work() bool { return !strings.HasPrefix(m.Unit, "ns/") }

// Changed reports whether the metric is a work metric present in both
// files with different values.
func (m Metric) Changed() bool { return m.Missing == "" && m.Work() && m.Old != m.New }

// compareMetrics joins two benchmarks' metrics by unit, in unit order.
func compareMetrics(old, new map[string]float64) []Metric {
	units := make([]string, 0, len(old)+len(new))
	for u := range old {
		units = append(units, u)
	}
	for u := range new {
		if _, ok := old[u]; !ok {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	ms := make([]Metric, len(units))
	for k, u := range units {
		o, inOld := old[u]
		n, inNew := new[u]
		ms[k] = Metric{Unit: u, Old: o, New: n}
		if !inNew {
			ms[k].Missing = "new"
		} else if !inOld {
			ms[k].Missing = "old"
		}
	}
	return ms
}

// Compare joins the two record sets by name, preserving the old file's
// order and appending new-only benchmarks at the end.
func Compare(old, new []Record) []Row {
	newByName := map[string]Record{}
	for _, r := range new {
		newByName[r.Name] = r
	}
	seen := map[string]bool{}
	rows := make([]Row, 0, len(old)+len(new))
	for _, o := range old {
		seen[o.Name] = true
		n, ok := newByName[o.Name]
		if !ok {
			rows = append(rows, Row{Name: o.Name, Old: o.NsPerOp, Missing: "new"})
			continue
		}
		row := Row{Name: o.Name, Old: o.NsPerOp, New: n.NsPerOp, Metrics: compareMetrics(o.Metrics, n.Metrics)}
		if o.NsPerOp > 0 {
			row.Delta = (n.NsPerOp - o.NsPerOp) / o.NsPerOp * 100
		}
		rows = append(rows, row)
	}
	for _, n := range new {
		if !seen[n.Name] {
			rows = append(rows, Row{Name: n.Name, New: n.NsPerOp, Missing: "old"})
		}
	}
	return rows
}

// Regressions returns the rows whose slowdown exceeds the threshold (in
// percent). Missing rows never count.
func Regressions(rows []Row, threshold float64) []Row {
	var out []Row
	for _, r := range rows {
		if r.Missing == "" && r.Delta > threshold {
			out = append(out, r)
		}
	}
	return out
}

// WorkChanges returns the rows with a changed work metric.
func WorkChanges(rows []Row) []Row {
	var out []Row
	for _, r := range rows {
		for _, m := range r.Metrics {
			if m.Changed() {
				out = append(out, r)
				break
			}
		}
	}
	return out
}

// Render formats the comparison as an aligned table.
func Render(rows []Row, threshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-56s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, r := range rows {
		switch r.Missing {
		case "new":
			fmt.Fprintf(&b, "%-56s %14.0f %14s %9s\n", r.Name, r.Old, "-", "gone")
		case "old":
			fmt.Fprintf(&b, "%-56s %14s %14.0f %9s\n", r.Name, "-", r.New, "new")
		default:
			flag := ""
			if r.Delta > threshold {
				flag = "  REGRESSION"
			}
			fmt.Fprintf(&b, "%-56s %14.0f %14.0f %+8.2f%%%s\n", r.Name, r.Old, r.New, r.Delta, flag)
		}
		for _, m := range r.Metrics {
			switch {
			case m.Missing == "new":
				fmt.Fprintf(&b, "    %-52s %14.6g %14s %9s\n", m.Unit, m.Old, "-", "gone")
			case m.Missing == "old":
				fmt.Fprintf(&b, "    %-52s %14s %14.6g %9s\n", m.Unit, "-", m.New, "new")
			case m.Changed():
				fmt.Fprintf(&b, "    %-52s %14.6g %14.6g %9s\n", m.Unit, m.Old, m.New, "CHANGED")
			default:
				fmt.Fprintf(&b, "    %-52s %14.6g %14.6g\n", m.Unit, m.Old, m.New)
			}
		}
	}
	return b.String()
}

func readRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func main() {
	oldPath := flag.String("old", "", "baseline benchjson file")
	newPath := flag.String("new", "", "candidate benchjson file")
	threshold := flag.Float64("threshold", 5, "fail when ns/op grows by more than this percent")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchcompare: -old and -new are both required")
		os.Exit(2)
	}
	oldRecs, err := readRecords(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(2)
	}
	newRecs, err := readRecords(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(2)
	}
	rows := Compare(oldRecs, newRecs)
	os.Stdout.WriteString(Render(rows, *threshold))
	failed := false
	if reg := Regressions(rows, *threshold); len(reg) > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d benchmark(s) regressed beyond %.1f%%\n", len(reg), *threshold)
		failed = true
	}
	if ch := WorkChanges(rows); len(ch) > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d benchmark(s) changed a work metric\n", len(ch))
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
