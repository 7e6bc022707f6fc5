// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON array of {name, ns_per_op, bytes_per_op, allocs_per_op,
// metrics} records, metrics holding by unit the values a benchmark reports
// with b.ReportMetric, such as DP cells per distance. The raw benchmark
// lines are echoed to stdout unchanged so the command can sit at the end
// of a pipeline without hiding the run; the JSON goes to the file named by
// -o (or stdout when -o is empty).
//
// When a benchmark name repeats (a `go test -count=N` run), the record
// keeps the minimum ns/op across repetitions: co-tenant interference on
// shared machines only ever adds time, so min-of-N estimates the
// benchmark's true cost far more stably than any single sample — this is
// what makes the bench-compare regression gate usable on noisy hosts.
//
// Usage:
//
//	go test -bench GridTuning -count=3 -benchmem ./internal/search | benchjson -o BENCH_tuning.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Record is one benchmark result. GOMAXPROCS suffixes are stripped from
// the name so committed files do not encode the build machine's core
// count; the measured values, of course, still do.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchLineRE matches the tabular result line `go test -bench` prints:
// name, iteration count, then "value unit" columns: ns/op, any
// b.ReportMetric values, and the -benchmem columns.
var benchLineRE = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+(.*\sns/op.*)$`)

// parseColumns fills rec from a result line's "value unit" columns and
// reports whether they held an ns/op value.
func parseColumns(rec *Record, cols string) bool {
	f := strings.Fields(cols)
	hasNs := false
	for k := 0; k+1 < len(f); k += 2 {
		v, err := strconv.ParseFloat(f[k], 64)
		if err != nil {
			return false
		}
		switch unit := f[k+1]; unit {
		case "ns/op":
			rec.NsPerOp, hasNs = v, true
		case "B/op":
			rec.BytesPerOp = int64(v)
		case "allocs/op":
			rec.AllocsPerOp = int64(v)
		default:
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[unit] = v
		}
	}
	return hasNs
}

func main() {
	out := flag.String("o", "", "write the JSON array to this file (default stdout)")
	flag.Parse()

	var records []Record
	index := map[string]int{} // name -> position in records
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		m := benchLineRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[3], 10, 64)
		rec := Record{Name: m[1], Iterations: iters}
		if !parseColumns(&rec, m[4]) {
			continue
		}
		if at, seen := index[rec.Name]; seen {
			if rec.NsPerOp < records[at].NsPerOp {
				records[at] = rec
			}
			continue
		}
		index[rec.Name] = len(records)
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read stdin: %v\n", err)
		os.Exit(1)
	}
	if len(records) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}

	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("[benchmark results written to %s]\n", *out)
}
