package dataset

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/multivariate"
)

// TestParsersRejectUnrepresentableRows pins the row rules ReadTSV and
// ReadMVTSV share: a label must be an integer an int holds (float-formatted
// integers such as "1.0000000e+00" are fine), and a multivariate row needs
// at least one value after its channel count. A rejected row is named by
// its line number.
func TestParsersRejectUnrepresentableRows(t *testing.T) {
	labels := []struct {
		field string
		want  int // parsed label; ignored when bad
		bad   bool
	}{
		{field: "NaN", bad: true},
		{field: "Inf", bad: true},
		{field: "-Inf", bad: true},
		{field: "1e300", bad: true},
		{field: "9223372036854775808", bad: true}, // 2^63, one past MaxInt64
		{field: "2.5", bad: true},
		{field: "-0.5", bad: true},
		{field: "1.0000000e+00", want: 1},
		{field: "-3", want: -3},
		{field: "-0", want: 0},
		{field: " 7 ", want: 7},
	}
	for _, c := range labels {
		tsv := "1\t0.5\n" + c.field + "\t0.5\t0.6\n"
		mv := "1\t1\t0.5\n" + c.field + "\t1\t0.5\t0.6\n"
		_, tl, terr := ReadTSV(strings.NewReader(tsv))
		_, ml, merr := ReadMVTSV(strings.NewReader(mv))
		for _, r := range []struct {
			name   string
			labels []int
			err    error
		}{{"ReadTSV", tl, terr}, {"ReadMVTSV", ml, merr}} {
			switch {
			case c.bad && r.err == nil:
				t.Errorf("%s accepted label %q as %v", r.name, c.field, r.labels)
			case c.bad && !strings.Contains(r.err.Error(), "line 2"):
				t.Errorf("%s: error %q does not name line 2", r.name, r.err)
			case !c.bad && r.err != nil:
				t.Errorf("%s rejected label %q: %v", r.name, c.field, r.err)
			case !c.bad && r.labels[1] != c.want:
				t.Errorf("%s parsed label %q as %d, want %d", r.name, c.field, r.labels[1], c.want)
			}
		}
	}
	for _, row := range []string{"2\t1", "2\t1\t", "2\t3\t\t\t"} {
		_, _, err := ReadMVTSV(strings.NewReader("1\t1\t0.5\n" + row + "\n"))
		if err == nil {
			t.Errorf("ReadMVTSV accepted row %q, which has no values", row)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("ReadMVTSV: error %q does not name line 2", err)
		}
	}
}

// parserSeeds are the parser regression inputs of this package's tests —
// line endings, trailing separators, all-missing rows, comma layouts — and
// the label cases above: the starting corpus of both fuzz targets.
var parserSeeds = []string{
	"1\t0.5\t0.6\r\n2\t0.7\t0.8\r\n",
	"1\t0.5\t0.6\r2\t0.7\t0.8\r",
	"1\t0.5\t0.6\r2\t0.7\t0.8",
	"1\t0.5\t0.6\r\n2\t0.7\t0.8\n",
	"1\t0.5\t0.6\t\n",
	"1,0.5,0.6,\n",
	"1\t0.5\t0.6\t\r\n",
	"1\tNaN\tNaN\tNaN\n",
	"1,NaN,,NaN\n",
	"1\tNaN\t0.5\tNaN\n",
	"1,2,3\n",
	"notanumber\t1\n",
	"1\n",
	"NaN\t0.5\n",
	"Inf\t0.5\n",
	"-Inf\t0.5\n",
	"1e300\t0.5\n",
	"2.5\t0.5\n",
	"1.0000000e+00\t-0\t+Inf\t-Inf\t1e-320\n",
	"1\t2\t0.5\t1.5\t2.5\t3.5\n2\t2\tNaN\t1\t\t2\t3\t4\n",
	"1\t2\n",
	"1\t2\t\t\n",
	"NaN\t1\t0.5\n",
	"2.5\t1\t0.5\n",
	"1\t0\t0.5\n",
}

// sameBits reports whether a and b hold the same values bit for bit, NaN
// payloads aside: the writers print every NaN as "NaN".
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) != math.IsNaN(b[i]) {
			return false
		}
		if !math.IsNaN(a[i]) && math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkLabels fails unless every accepted label is exactly the value of
// its row's label field: an integer, not a truncated fraction or a
// converted NaN or infinity.
func checkLabels(t *testing.T, in string, labels []int) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(in))
	sc.Buffer(nil, maxLineBytes)
	sc.Split(scanLinesAnyEnding)
	row := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		sep := "\t"
		if !strings.Contains(text, "\t") {
			sep = ","
		}
		field := strings.Split(text, sep)[0]
		if f, err := strconv.ParseFloat(strings.TrimSpace(field), 64); err != nil || f != float64(labels[row]) {
			t.Fatalf("row %d: label field %q accepted as %d", row, field, labels[row])
		}
		row++
	}
	if row != len(labels) {
		t.Fatalf("%d labels for %d rows", len(labels), row)
	}
}

// FuzzReadTSV checks that ReadTSV never panics and that every input it
// accepts has labels equal to their integral label fields and round-trips
// through WriteTSV and back to the same labels and the same value bits,
// NaN positions kept.
func FuzzReadTSV(f *testing.F) {
	for _, s := range parserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		series, labels, err := ReadTSV(strings.NewReader(in))
		if err != nil {
			return
		}
		checkLabels(t, in, labels)
		var buf bytes.Buffer
		if err := WriteTSV(&buf, series, labels); err != nil {
			t.Fatalf("WriteTSV refused parsed input: %v", err)
		}
		series2, labels2, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("re-reading written output: %v", err)
		}
		if len(series2) != len(series) {
			t.Fatalf("round trip: %d series, want %d", len(series2), len(series))
		}
		for i := range series {
			if labels2[i] != labels[i] || !sameBits(series[i], series2[i]) {
				t.Fatalf("row %d: (%d, %v) came back as (%d, %v)", i, labels[i], series[i], labels2[i], series2[i])
			}
		}
	})
}

// FuzzReadMVTSV is FuzzReadTSV for the multivariate wide layout, through
// WriteMVTSV.
func FuzzReadMVTSV(f *testing.F) {
	for _, s := range parserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		series, labels, err := ReadMVTSV(strings.NewReader(in))
		if err != nil {
			return
		}
		checkLabels(t, in, labels)
		var buf bytes.Buffer
		if err := WriteMVTSV(&buf, series, labels); err != nil {
			t.Fatalf("WriteMVTSV refused parsed input: %v", err)
		}
		series2, labels2, err := ReadMVTSV(&buf)
		if err != nil {
			t.Fatalf("re-reading written output: %v", err)
		}
		if len(series2) != len(series) {
			t.Fatalf("round trip: %d series, want %d", len(series2), len(series))
		}
		for i, s := range series {
			if labels2[i] != labels[i] || !sameSteps(s, series2[i]) {
				t.Fatalf("row %d: (%d, %v) came back as (%d, %v)", i, labels[i], s, labels2[i], series2[i])
			}
		}
	})
}

// sameSteps is sameBits over every time step of two multivariate series.
func sameSteps(a, b multivariate.Series) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if !sameBits(a[t], b[t]) {
			return false
		}
	}
	return true
}

// TestParsersLineLengthCap: both readers grow their line buffer on demand
// up to maxLineBytes, so a 2 MiB row parses and a row past the cap is a
// scan error, not a panic.
func TestParsersLineLengthCap(t *testing.T) {
	row := func(values int) string { return "1\t1" + strings.Repeat("\t0.5", values) + "\n" }
	long := row(1 << 19)                  // 2 MiB of "\t0.5" fields
	tooLong := row(maxLineBytes/4 + 1024) // past the 16 MiB cap
	series, _, err := ReadTSV(strings.NewReader(long + "2\t3\t4\n"))
	if err != nil {
		t.Fatalf("ReadTSV on a 2 MiB row: %v", err)
	}
	if len(series) != 2 || len(series[0]) != 1<<19+1 {
		t.Fatalf("ReadTSV on a 2 MiB row: %d series, first of length %d", len(series), len(series[0]))
	}
	mv, _, err := ReadMVTSV(strings.NewReader(long))
	if err != nil {
		t.Fatalf("ReadMVTSV on a 2 MiB row: %v", err)
	}
	if len(mv) != 1 || len(mv[0]) != 1<<19 {
		t.Fatalf("ReadMVTSV on a 2 MiB row: %d series, first of %d steps", len(mv), len(mv[0]))
	}
	if _, _, err := ReadTSV(strings.NewReader(tooLong)); err == nil {
		t.Fatal("ReadTSV accepted a row past maxLineBytes")
	}
	if _, _, err := ReadMVTSV(strings.NewReader(tooLong)); err == nil {
		t.Fatal("ReadMVTSV accepted a row past maxLineBytes")
	}
}

// BenchmarkReadTSV parses one 100-series split of length 128 (about 260 KB
// of text), the size of a UCR-shaped training split.
func BenchmarkReadTSV(b *testing.B) {
	d := Generate(Config{
		Name: "Bench", Family: FamilyHarmonic, Length: 128,
		NumClasses: 4, TrainSize: 100, TestSize: 4, Seed: 1, NoiseSigma: 0.1,
	})
	var buf bytes.Buffer
	if err := WriteTSV(&buf, d.Train, d.TrainLabels); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadTSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
