package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
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

// The Scanner-based readers the byte-buffer parser replaced, kept verbatim
// (renamed) as references: TestParsersMatchReference and both fuzz
// targets require the same values, labels and error text from the
// production readers.

func refReadTSV(r io.Reader) (series [][]float64, labels []int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	sc.Split(refScanLinesAnyEnding)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		sep := "\t"
		if !strings.Contains(text, "\t") {
			sep = ","
		}
		fields := strings.Split(text, sep)
		// Trailing separators (a tab or comma before the line ending) yield
		// empty tail fields that are artifacts, not missing observations.
		for len(fields) > 0 && strings.TrimSpace(fields[len(fields)-1]) == "" {
			fields = fields[:len(fields)-1]
		}
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("dataset: line %d: need a label and at least one value", line)
		}
		label, err := refParseLabel(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: line %d: %v", line, err)
		}
		s := make([]float64, 0, len(fields)-1)
		missing := 0
		for _, f := range fields[1:] {
			f = strings.TrimSpace(f)
			if f == "" || strings.EqualFold(f, "nan") {
				s = append(s, math.NaN())
				missing++
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("dataset: line %d: bad value %q: %v", line, f, err)
			}
			s = append(s, v)
		}
		if missing == len(s) {
			return nil, nil, fmt.Errorf("dataset: line %d: series has no observed values (all %d missing)", line, missing)
		}
		series = append(series, s)
		labels = append(labels, label)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("dataset: scan: %v", err)
	}
	return series, labels, nil
}

func refParseLabel(field string) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
	if err != nil {
		return 0, fmt.Errorf("bad label %q: %v", field, err)
	}
	if f != math.Trunc(f) || f < math.MinInt || f >= -math.MinInt {
		return 0, fmt.Errorf("bad label %q: not an integer in int range", field)
	}
	return int(f), nil
}

func refScanLinesAnyEnding(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if atEOF && len(data) == 0 {
		return 0, nil, nil
	}
	if i := bytes.IndexAny(data, "\r\n"); i >= 0 {
		if data[i] == '\n' {
			return i + 1, data[:i], nil
		}
		// data[i] == '\r': swallow a following LF when present; if the CR is
		// the last byte of a non-final chunk, wait for more data to decide.
		if i+1 < len(data) {
			if data[i+1] == '\n' {
				return i + 2, data[:i], nil
			}
			return i + 1, data[:i], nil
		}
		if atEOF {
			return i + 1, data[:i], nil
		}
		return 0, nil, nil
	}
	if atEOF {
		return len(data), data, nil
	}
	return 0, nil, nil
}

func refReadMVTSV(r io.Reader) (series []multivariate.Series, labels []int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	sc.Split(refScanLinesAnyEnding)
	line := 0
	channels := -1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		sep := "\t"
		if !strings.Contains(text, "\t") {
			sep = ","
		}
		fields := strings.Split(text, sep)
		for len(fields) > 0 && strings.TrimSpace(fields[len(fields)-1]) == "" {
			fields = fields[:len(fields)-1]
		}
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("dataset: line %d: need a label and a channel count", line)
		}
		label, err := refParseLabel(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: line %d: %v", line, err)
		}
		d, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil || d < 1 {
			return nil, nil, fmt.Errorf("dataset: line %d: bad channel count %q", line, fields[1])
		}
		if channels == -1 {
			channels = d
		} else if d != channels {
			return nil, nil, fmt.Errorf("dataset: line %d: channel count %d, want %d (all rows must agree)", line, d, channels)
		}
		values := fields[2:]
		if len(values) == 0 {
			return nil, nil, fmt.Errorf("dataset: line %d: no values after the channel count", line)
		}
		if len(values)%d != 0 {
			return nil, nil, fmt.Errorf("dataset: line %d: %d values not divisible by %d channels", line, len(values), d)
		}
		n := len(values) / d
		s := make(multivariate.Series, n)
		for t := 0; t < n; t++ {
			s[t] = make([]float64, d)
			for c := 0; c < d; c++ {
				f := strings.TrimSpace(values[t*d+c])
				if f == "" || strings.EqualFold(f, "nan") {
					s[t][c] = math.NaN()
					continue
				}
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("dataset: line %d: bad value %q: %v", line, f, err)
				}
				s[t][c] = v
			}
		}
		series = append(series, s)
		labels = append(labels, label)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("dataset: scan: %v", err)
	}
	return series, labels, nil
}

// errText is err's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// exactBits reports whether a and b hold the same float64 bits, NaN
// payloads included.
func exactBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// matchTSV reports how ReadTSV's result on in differs from the reference
// result (refS, refL, refErr); "" when it does not.
func matchTSV(in string, refS [][]float64, refL []int, refErr error) string {
	s, l, err := ReadTSV(strings.NewReader(in))
	if errText(err) != errText(refErr) {
		return fmt.Sprintf("error %q, reference %q", errText(err), errText(refErr))
	}
	if len(s) != len(refS) || len(l) != len(refL) {
		return fmt.Sprintf("%d series and %d labels, reference %d and %d", len(s), len(l), len(refS), len(refL))
	}
	for i := range s {
		if l[i] != refL[i] || !exactBits(s[i], refS[i]) {
			return fmt.Sprintf("row %d: (%d, %v), reference (%d, %v)", i, l[i], s[i], refL[i], refS[i])
		}
	}
	return ""
}

// matchMVTSV is matchTSV for ReadMVTSV.
func matchMVTSV(in string, refS []multivariate.Series, refL []int, refErr error) string {
	s, l, err := ReadMVTSV(strings.NewReader(in))
	if errText(err) != errText(refErr) {
		return fmt.Sprintf("error %q, reference %q", errText(err), errText(refErr))
	}
	if len(s) != len(refS) || len(l) != len(refL) {
		return fmt.Sprintf("%d series and %d labels, reference %d and %d", len(s), len(l), len(refS), len(refL))
	}
	for i := range s {
		if l[i] != refL[i] || len(s[i]) != len(refS[i]) {
			return fmt.Sprintf("row %d: label %d, %d steps, reference %d, %d", i, l[i], len(s[i]), refL[i], len(refS[i]))
		}
		for t := range s[i] {
			if !exactBits(s[i][t], refS[i][t]) {
				return fmt.Sprintf("row %d step %d: %v, reference %v", i, t, s[i][t], refS[i][t])
			}
		}
	}
	return ""
}

// genValues are the observation fields genInput draws from besides random
// floats: missing markers in several spellings, signed zeros and
// infinities, a subnormal (strconv's slow path, so only one), fields
// padded with ASCII or Unicode white space, a hex form, and fields no
// float parses (the last row of the list; one of them overflows).
var genValues = [][]string{
	{"NaN", "nan", "NAN", "", " ", "-0", "+Inf", "-Inf", "inf", "1e-320", "0x1p-2", " 3.5 ", "\u00a01.25", "1E5", "+7"},
	{"abc", "1.2.3", "--1", "1e400", "0x", "1_000", "nan1", "∞"},
}

// genLabels are the label fields genInput draws from besides plain
// integers: accepted float-formatted and padded forms, then rejected ones.
var genLabels = [][]string{
	{"1.0000000e+00", " 7 ", "-0", "+3", "-12", "2e1"},
	{"NaN", "Inf", "-Inf", "2.5", "1e300", "9223372036854775808", "x", ""},
}

// genInput returns one random split of 1 to 24 rows, in the univariate or
// (mv) the wide layout, with LF, CRLF and lone-CR endings mixed, tab or
// comma separators (now and then the other one inside a row), trailing
// separators, blank lines, missing values, all-missing rows, bad
// labels, bad values and bad channel counts. A bad split gets bad fields
// with probability bad per field, so many splits fail past their first
// line and on several rows.
func genInput(rng *rand.Rand, mv bool, bad float64) string {
	var b strings.Builder
	sep, other := "\t", ","
	if rng.Intn(4) == 0 {
		sep, other = other, sep
	}
	channels := 1 + rng.Intn(3)
	endings := []string{"\n", "\r\n", "\r"}
	rows := 1 + rng.Intn(24)
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	for r := 0; r < rows; r++ {
		if rng.Intn(16) == 0 {
			b.WriteString(pick([]string{"", " ", "\t", " \t ", ","}))
			b.WriteString(pick(endings))
			continue
		}
		switch {
		case rng.Float64() < bad:
			b.WriteString(pick(genLabels[1]))
		case rng.Intn(8) == 0:
			b.WriteString(pick(genLabels[0]))
		default:
			b.WriteString(strconv.Itoa(rng.Intn(5) - 1))
		}
		n := rng.Intn(7)
		if mv {
			d := channels
			switch {
			case rng.Float64() < bad/2:
				d = rng.Intn(3)
			case rng.Float64() < bad/2:
				b.WriteString(sep + pick([]string{"x", "", "1.5", "-1"}))
				d = -1
			}
			if d >= 0 {
				b.WriteString(sep + strconv.Itoa(d))
			}
			n = channels * rng.Intn(4)
			if rng.Float64() < bad/2 {
				n++
			}
		}
		allMissing := rng.Intn(40) == 0
		for v := 0; v < n; v++ {
			s := sep
			if rng.Intn(100) == 0 {
				s = other
			}
			b.WriteString(s)
			switch {
			case allMissing:
				b.WriteString(pick(genValues[0][:5]))
			case rng.Float64() < bad/8:
				b.WriteString(pick(genValues[1]))
			case rng.Intn(8) == 0:
				b.WriteString(pick(genValues[0]))
			default:
				b.WriteString(strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)), 'g', -1, 64))
			}
		}
		if rng.Intn(6) == 0 {
			b.WriteString(pick([]string{sep, sep + sep, sep + " ", " "}))
		}
		if r < rows-1 || rng.Intn(2) == 0 {
			b.WriteString(pick(endings))
		}
	}
	return b.String()
}

// TestParsersMatchReference requires ReadTSV and ReadMVTSV to return the
// reference readers' value bits, labels and error text on the parser
// seeds, the package's parser regression inputs and 20,000 generated
// splits, at GOMAXPROCS 1, 2 and 4: the rows run on par workers, and the
// error must be the first bad line's whatever the worker count.
func TestParsersMatchReference(t *testing.T) {
	inputs := append([]string{}, parserSeeds...)
	inputs = append(inputs,
		"1\t0.5\t0.6\r\n2\t0.7\t0.8\r\n", "1\t0.5\t0.6\r2\t0.7\t0.8\r", "1\t0.5\t0.6\r2\t0.7\t0.8",
		"1\t0.5\t0.6\t\t\n", "1\t0.5\t0.6 \n", "1,0.5,0.6\n2,0.7,0.8\n", "1\tabc\n",
		"1\t2\t0.5\t1.5\t2.5\n", "1\t2\t1\t2\n2\t3\t1\t2\t3\n", "1\t2\tfoo\tbar\n",
		"1\t1\t0.5\n2\t1\n", "1\t1\t0.5\n2\t1\t\n", "1\t1\t0.5\n2\t3\t\t\t\n",
		"", "\n\n", "\r\r\n", " \t \n,\n",
	)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 20000; i++ {
		bad := 0.0
		if i%2 == 1 {
			bad = 0.05 + 0.3*rng.Float64()
		}
		inputs = append(inputs, genInput(rng, i%4 < 2, bad))
	}
	type tsvRef struct {
		s   [][]float64
		l   []int
		err error
	}
	type mvRef struct {
		s   []multivariate.Series
		l   []int
		err error
	}
	tsv := make([]tsvRef, len(inputs))
	mv := make([]mvRef, len(inputs))
	pastFirst, accepted := 0, 0
	for i, in := range inputs {
		tsv[i].s, tsv[i].l, tsv[i].err = refReadTSV(strings.NewReader(in))
		mv[i].s, mv[i].l, mv[i].err = refReadMVTSV(strings.NewReader(in))
		for _, err := range []error{tsv[i].err, mv[i].err} {
			var line int
			if err == nil {
				accepted++
			} else if _, scanErr := fmt.Sscanf(err.Error(), "dataset: line %d:", &line); scanErr == nil && line > 1 {
				pastFirst++
			}
		}
	}
	// The generated splits must keep exercising what the test is for:
	// accepted splits, and errors past the first line.
	if accepted < len(inputs)/4 || pastFirst < len(inputs)/4 {
		t.Fatalf("%d of %d reference parses accepted, %d failed past line 1", accepted, 2*len(inputs), pastFirst)
	}
	t.Logf("%d inputs: %d reference parses accepted, %d failed past line 1", len(inputs), accepted, pastFirst)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for i, in := range inputs {
			if diff := matchTSV(in, tsv[i].s, tsv[i].l, tsv[i].err); diff != "" {
				t.Fatalf("GOMAXPROCS=%d: ReadTSV(%q): %s", procs, in, diff)
			}
			if diff := matchMVTSV(in, mv[i].s, mv[i].l, mv[i].err); diff != "" {
				t.Fatalf("GOMAXPROCS=%d: ReadMVTSV(%q): %s", procs, in, diff)
			}
		}
	}
}

// checkLabels fails unless every accepted label is exactly the value of
// its row's label field: an integer, not a truncated fraction or a
// converted NaN or infinity.
func checkLabels(t *testing.T, in string, labels []int) {
	t.Helper()
	rows, err := splitRows([]byte(in))
	if err != nil {
		t.Fatalf("accepted input splits with %v", err)
	}
	if len(rows) != len(labels) {
		t.Fatalf("%d labels for %d rows", len(labels), len(rows))
	}
	for i, r := range rows {
		f := newFields(r.text)
		field := f.next()
		if v, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64); err != nil || v != float64(labels[i]) {
			t.Fatalf("row %d: label field %q accepted as %d", i, field, labels[i])
		}
	}
}

// FuzzReadTSV checks that ReadTSV never panics, returns the reference
// reader's values, labels and error text, and that every input it accepts
// has labels equal to their integral label fields and round-trips through
// WriteTSV and back to the same labels and the same value bits, NaN
// positions kept.
func FuzzReadTSV(f *testing.F) {
	for _, s := range parserSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		refS, refL, refErr := refReadTSV(strings.NewReader(in))
		if diff := matchTSV(in, refS, refL, refErr); diff != "" {
			t.Fatalf("ReadTSV differs from the reference: %s", diff)
		}
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
		refS, refL, refErr := refReadMVTSV(strings.NewReader(in))
		if diff := matchMVTSV(in, refS, refL, refErr); diff != "" {
			t.Fatalf("ReadMVTSV differs from the reference: %s", diff)
		}
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

// TestParsersLineLengthCap: a line may take up to maxLineBytes with its
// ending, so a 2 MiB row parses and a row past the cap is a scan error,
// not a panic. At the cap itself, for every line ending, both readers
// accept and reject exactly the lines the reference readers did, and a
// bad row before a long line is reported first.
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
	// A row padded with spaces to the given byte count, then an ending.
	padded := func(n int, ending string) string {
		const text = "2\t1\t0.5"
		return text + strings.Repeat(" ", n-len(text)) + ending
	}
	for _, c := range []struct {
		name   string
		ending string
		need   int // bytes the line takes besides its text
		last   bool
	}{
		{"lf", "\n", 1, false},
		{"crlf", "\r\n", 2, false},
		{"cr", "\r", 2, false},
		{"cr-at-end", "\r", 2, true}, // end of input decides, as a next byte would
		{"no-ending", "", 1, true},
	} {
		for _, over := range []int{0, 1} {
			in := "1\t1\t0.5\n" + padded(maxLineBytes-c.need+over, c.ending)
			if !c.last {
				in += "3\t1\t0.5\n"
			}
			refS, refL, refErr := refReadTSV(strings.NewReader(in))
			if diff := matchTSV(in, refS, refL, refErr); diff != "" {
				t.Errorf("%s, %d over the cap: ReadTSV: %s", c.name, over, diff)
			}
			if (refErr != nil) != (over == 1) {
				t.Errorf("%s, %d over the cap: reference error %v", c.name, over, refErr)
			}
		}
	}
	// Past the cap, the multivariate reader stops as ReadTSV does, and a
	// bad row before the long line is the error both report.
	for _, before := range []string{"1\t1\t0.5\n", "1\t1\tbad\n"} {
		in := before + padded(maxLineBytes, "\n")
		refS, refL, refErr := refReadTSV(strings.NewReader(in))
		if diff := matchTSV(in, refS, refL, refErr); diff != "" {
			t.Errorf("after %q, past the cap: ReadTSV: %s", before, diff)
		}
		refMV, refML, refMErr := refReadMVTSV(strings.NewReader(in))
		if diff := matchMVTSV(in, refMV, refML, refMErr); diff != "" {
			t.Errorf("after %q, past the cap: ReadMVTSV: %s", before, diff)
		}
	}
}

// TestWriteTSVBytes pins the writers' exact output for the values whose
// formatting is easiest to get wrong: NaN, -0, ±Inf, the smallest
// subnormal, a large exponent, and negative labels.
func TestWriteTSVBytes(t *testing.T) {
	values := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, 1e300, -0.1}
	var b strings.Builder
	if err := WriteTSV(&b, [][]float64{values, {2.5}}, []int{-3, math.MaxInt64}); err != nil {
		t.Fatal(err)
	}
	want := "-3\tNaN\t-0\t+Inf\t-Inf\t5e-324\t1e+300\t-0.1\n9223372036854775807\t2.5\n"
	if b.String() != want {
		t.Errorf("WriteTSV wrote %q, want %q", b.String(), want)
	}
	b.Reset()
	mv := multivariate.Series{values[0:2], values[2:4], values[4:6]}
	if err := WriteMVTSV(&b, []multivariate.Series{mv, {{1, 2}}}, []int{-3, math.MinInt64}); err != nil {
		t.Fatal(err)
	}
	want = "-3\t2\tNaN\t-0\t+Inf\t-Inf\t5e-324\t1e+300\n-9223372036854775808\t2\t1\t2\n"
	if b.String() != want {
		t.Errorf("WriteMVTSV wrote %q, want %q", b.String(), want)
	}
}

// benchSplit is the text of one 100-series split of length 128 (about 260
// KB), the size of a UCR-shaped training split, and its series and labels.
func benchSplit(b *testing.B) ([]byte, [][]float64, []int) {
	d := Generate(Config{
		Name: "Bench", Family: FamilyHarmonic, Length: 128,
		NumClasses: 4, TrainSize: 100, TestSize: 4, Seed: 1, NoiseSigma: 0.1,
	})
	var buf bytes.Buffer
	if err := WriteTSV(&buf, d.Train, d.TrainLabels); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), d.Train, d.TrainLabels
}

// BenchmarkReadTSV parses one benchSplit.
func BenchmarkReadTSV(b *testing.B) {
	data, _, _ := benchSplit(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadTSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteTSV writes one benchSplit.
func BenchmarkWriteTSV(b *testing.B) {
	data, series, labels := benchSplit(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTSV(io.Discard, series, labels); err != nil {
			b.Fatal(err)
		}
	}
}
