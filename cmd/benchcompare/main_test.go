package main

import (
	"strings"
	"testing"
)

func TestCompareJoinsAndFlags(t *testing.T) {
	old := []Record{
		{Name: "BenchmarkA", NsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 200},
		{Name: "BenchmarkGone", NsPerOp: 50},
	}
	new := []Record{
		{Name: "BenchmarkA", NsPerOp: 104}, // +4%: inside the 5% budget
		{Name: "BenchmarkB", NsPerOp: 250}, // +25%: regression
		{Name: "BenchmarkFresh", NsPerOp: 10},
	}
	rows := Compare(old, new)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	if rows[0].Delta != 4 || rows[0].Missing != "" {
		t.Errorf("row A = %+v, want +4%% present", rows[0])
	}
	if rows[1].Delta != 25 {
		t.Errorf("row B delta = %v, want 25", rows[1].Delta)
	}
	if rows[2].Missing != "new" || rows[3].Missing != "old" {
		t.Errorf("missing flags wrong: %+v %+v", rows[2], rows[3])
	}

	reg := Regressions(rows, 5)
	if len(reg) != 1 || reg[0].Name != "BenchmarkB" {
		t.Fatalf("Regressions = %+v, want only BenchmarkB", reg)
	}
	// An improvement or a vanished benchmark must never fail the gate.
	if reg := Regressions(rows, 30); len(reg) != 0 {
		t.Errorf("Regressions(30%%) = %+v, want none", reg)
	}

	out := Render(rows, 5)
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("render lacks the REGRESSION flag:\n%s", out)
	}
	if !strings.Contains(out, "gone") || !strings.Contains(out, "new") {
		t.Errorf("render lacks the missing markers:\n%s", out)
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	rows := Compare([]Record{{Name: "BenchmarkZ", NsPerOp: 0}}, []Record{{Name: "BenchmarkZ", NsPerOp: 10}})
	if rows[0].Delta != 0 {
		t.Errorf("zero baseline delta = %v, want 0 (undefined ratios never fail the gate)", rows[0].Delta)
	}
}

// TestCompareWorkMetrics: a work metric (unit not under ns/) that differs
// fails the gate whatever the threshold; equal work metrics, timing
// metrics and metrics only one file reports never do, and every metric is
// printed with both values.
func TestCompareWorkMetrics(t *testing.T) {
	old := []Record{
		{Name: "BenchmarkEqual", NsPerOp: 100, Metrics: map[string]float64{"cells/dist": 1591, "cells/full": 0.5228, "ns/dist": 20653}},
		{Name: "BenchmarkChanged", NsPerOp: 100, Metrics: map[string]float64{"cells/dist": 4826, "ns/dist": 58841}},
		{Name: "BenchmarkOneSided", NsPerOp: 100, Metrics: map[string]float64{"cells/dist": 462}},
	}
	new := []Record{
		{Name: "BenchmarkEqual", NsPerOp: 40, Metrics: map[string]float64{"cells/dist": 1591, "cells/full": 0.5228, "ns/dist": 6756}},
		{Name: "BenchmarkChanged", NsPerOp: 100, Metrics: map[string]float64{"cells/dist": 4827, "ns/dist": 58841}},
		{Name: "BenchmarkOneSided", NsPerOp: 100, Metrics: map[string]float64{"cells/full": 0.58}},
	}
	rows := Compare(old, new)
	want := [][]Metric{
		{{Unit: "cells/dist", Old: 1591, New: 1591}, {Unit: "cells/full", Old: 0.5228, New: 0.5228}, {Unit: "ns/dist", Old: 20653, New: 6756}},
		{{Unit: "cells/dist", Old: 4826, New: 4827}, {Unit: "ns/dist", Old: 58841, New: 58841}},
		{{Unit: "cells/dist", Old: 462, Missing: "new"}, {Unit: "cells/full", New: 0.58, Missing: "old"}},
	}
	for k, r := range rows {
		if len(r.Metrics) != len(want[k]) {
			t.Fatalf("%s metrics = %+v, want %+v", r.Name, r.Metrics, want[k])
		}
		for i, m := range r.Metrics {
			if m != want[k][i] {
				t.Errorf("%s metric %d = %+v, want %+v", r.Name, i, m, want[k][i])
			}
		}
	}
	if ch := WorkChanges(rows); len(ch) != 1 || ch[0].Name != "BenchmarkChanged" {
		t.Errorf("WorkChanges = %+v, want only BenchmarkChanged", ch)
	}
	// A changed timing metric alone never fails; nor does a faster ns/op.
	if ch := WorkChanges(rows[:1]); len(ch) != 0 {
		t.Errorf("WorkChanges(equal work, faster timing) = %+v, want none", ch)
	}
	if reg := Regressions(rows, 35); len(reg) != 0 {
		t.Errorf("Regressions = %+v, want none", reg)
	}

	out := Render(rows, 35)
	for _, line := range []string{"cells/dist", "4826", "4827", "CHANGED", "20653", "6756", "gone", "new"} {
		if !strings.Contains(out, line) {
			t.Errorf("render lacks %q:\n%s", line, out)
		}
	}
	if n := strings.Count(out, "CHANGED"); n != 1 {
		t.Errorf("render flags %d metrics CHANGED, want 1:\n%s", n, out)
	}
}
