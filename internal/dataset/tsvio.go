package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/par"
)

// maxLineBytes caps one line of a TSV split, counted as splitRows counts
// it: a longer line ends the split with errTooLong.
const maxLineBytes = 1 << 24

// errTooLong is the scan error of a line past maxLineBytes, in the words
// of bufio.Scanner, which the readers used to split lines with.
var errTooLong = fmt.Errorf("dataset: scan: %v", bufio.ErrTooLong)

// row is one non-blank line of a split, trimmed of surrounding white space.
type row struct {
	text []byte
	line int // 1-based, blank lines counted
}

// splitRows returns the non-blank rows of data in line order. Lines end at
// LF, CRLF or a lone CR (classic Mac exports). A line that needs more than
// maxLineBytes with its ending (a CR needs the byte after it to tell a
// lone CR from CRLF, and a last line without an ending one byte more than
// its text) stops the split: the rows before it come back with errTooLong.
func splitRows(data []byte) ([]row, error) {
	var rows []row
	lf, cr := -1, -1 // the next LF and CR at or after start, len(data) for none
	for start, line := 0, 1; start < len(data); line++ {
		if lf < start {
			lf = indexFrom(data, start, '\n')
		}
		if cr < start {
			cr = indexFrom(data, start, '\r')
		}
		end, next, need := lf, lf+1, lf+1
		if cr < lf {
			end, next, need = cr, cr+1, min(cr+2, len(data)+1)
			if next < len(data) && data[next] == '\n' {
				next++
			}
		}
		if need-start > maxLineBytes {
			return rows, errTooLong
		}
		if text := bytes.TrimSpace(data[start:end]); len(text) > 0 {
			rows = append(rows, row{text: text, line: line})
		}
		start = next
	}
	return rows, nil
}

// indexFrom is the index of the first c in data at or after from, or
// len(data) when there is none.
func indexFrom(data []byte, from int, c byte) int {
	if i := bytes.IndexByte(data[from:], c); i >= 0 {
		return from + i
	}
	return len(data)
}

// fields walks the fields of one row in place. The separator is a tab when
// the row holds one, else a comma. Trailing blank fields, left by a
// separator before the line ending, are artifacts, not missing
// observations, and are dropped.
type fields struct {
	rest []byte // the fields not yet read
	sep  byte
	n    int // how many fields are left
}

func newFields(text []byte) fields {
	sep := byte(',')
	if bytes.IndexByte(text, '\t') >= 0 {
		sep = '\t'
	}
	end := len(text)
	for end > 0 {
		j := bytes.LastIndexByte(text[:end], sep)
		if len(bytes.TrimSpace(text[j+1:end])) > 0 {
			break
		}
		end = max(j, 0)
	}
	f := fields{rest: text[:end], sep: sep}
	if end > 0 {
		f.n = bytes.Count(f.rest, []byte{sep}) + 1
	}
	return f
}

// next returns the next field; the caller checks n first.
func (f *fields) next() []byte {
	f.n--
	i := bytes.IndexByte(f.rest, f.sep)
	if i < 0 {
		field := f.rest
		f.rest = nil
		return field
	}
	field := f.rest[:i]
	f.rest = f.rest[i+1:]
	return field
}

// parseRows runs parse(i) for every row index i of a split on par
// workers, each row into its caller's preallocated slot, and returns each
// row's error.
func parseRows(n int, parse func(i int) error) []error {
	errs := make([]error, n)
	par.For(n, par.Workers(n), func(i int) { errs[i] = parse(i) })
	return errs
}

// rowError names the line of a row's error.
func rowError(r row, err error) error {
	return fmt.Errorf("dataset: line %d: %v", r.line, err)
}

// ReadTSV parses one split in the UCR tab-separated format: one series per
// line, the first field being the integer class label (float-formatted
// integers such as "1.0000000e+00" are accepted, any other label is an
// error), the remaining fields the observations. Empty interior fields
// and "NaN" become NaN (later interpolated); trailing separators are
// ignored. Both tabs and commas are accepted as separators and all three
// line-ending conventions (LF, CRLF, lone CR) are recognized, matching
// the layouts found in archive releases.
// A row whose observations are all missing cannot be interpolated and is
// rejected with an error. The reader is read whole before parsing; on a
// bad row the error names the first bad line.
func ReadTSV(r io.Reader) (series [][]float64, labels []int, err error) {
	var buf bytes.Buffer
	_, readErr := io.Copy(&buf, r)
	series, labels, err = parseTSV(buf.Bytes())
	if err == nil && readErr != nil {
		return nil, nil, fmt.Errorf("dataset: scan: %v", readErr)
	}
	return series, labels, err
}

// parseTSV is ReadTSV over one buffer.
func parseTSV(data []byte) ([][]float64, []int, error) {
	rows, splitErr := splitRows(data)
	if len(rows) == 0 {
		return nil, nil, splitErr
	}
	series := make([][]float64, len(rows))
	labels := make([]int, len(rows))
	errs := parseRows(len(rows), func(i int) (err error) {
		series[i], labels[i], err = parseSeries(rows[i].text)
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, rowError(rows[i], err)
		}
	}
	if splitErr != nil {
		return nil, nil, splitErr
	}
	return series, labels, nil
}

// parseSeries parses one univariate row: its label and its observations.
func parseSeries(text []byte) ([]float64, int, error) {
	f := newFields(text)
	if f.n < 2 {
		return nil, 0, errors.New("need a label and at least one value")
	}
	label, err := parseLabel(f.next())
	if err != nil {
		return nil, 0, err
	}
	s := make([]float64, f.n)
	missing := 0
	for i := range s {
		v, ok, err := parseValue(f.next())
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			missing++
		}
		s[i] = v
	}
	if missing == len(s) {
		return nil, 0, fmt.Errorf("series has no observed values (all %d missing)", missing)
	}
	return s, label, nil
}

// parseLabel parses a class label field: an integer that fits an int,
// written either plainly or float-formatted ("1.0000000e+00", as some
// archive releases do). NaN, infinities, fractions and out-of-range
// values are rejected: no int represents them.
func parseLabel(field []byte) (int, error) {
	f, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
	if err != nil {
		return 0, fmt.Errorf("bad label %q: %v", field, err)
	}
	if f != math.Trunc(f) || f < math.MinInt || f >= -math.MinInt {
		return 0, fmt.Errorf("bad label %q: not an integer in int range", field)
	}
	return int(f), nil
}

// parseValue parses one observation field. A blank field or "NaN" in any
// case is a missing observation: NaN with ok false.
func parseValue(field []byte) (v float64, ok bool, err error) {
	field = bytes.TrimSpace(field)
	if len(field) == 0 || strings.EqualFold(string(field), "nan") {
		return math.NaN(), false, nil
	}
	v, err = strconv.ParseFloat(string(field), 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad value %q: %v", field, err)
	}
	return v, true, nil
}

// appendValue appends v in the form the readers parse back to the same
// bits: the shortest round-tripping 'g' form, or "NaN".
func appendValue(b []byte, v float64) []byte {
	if math.IsNaN(v) {
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// WriteTSV writes series in the UCR tab-separated format.
func WriteTSV(w io.Writer, series [][]float64, labels []int) error {
	if len(series) != len(labels) {
		return fmt.Errorf("dataset: %d series, %d labels", len(series), len(labels))
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for i, s := range series {
		line = strconv.AppendInt(line[:0], int64(labels[i]), 10)
		for _, v := range s {
			line = appendValue(append(line, '\t'), v)
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadUCR loads a UCR-archive dataset directory laid out as
// dir/Name/Name_TRAIN.tsv and dir/Name/Name_TEST.tsv, applying the paper's
// preprocessing: missing values filled by linear interpolation and all
// series resampled to the longest length in the dataset.
func LoadUCR(dir, name string) (*Dataset, error) {
	load := func(split string) ([][]float64, []int, error) {
		data, err := os.ReadFile(filepath.Join(dir, name, fmt.Sprintf("%s_%s.tsv", name, split)))
		if err != nil {
			return nil, nil, err
		}
		return parseTSV(data)
	}
	train, trainLabels, err := load("TRAIN")
	if err != nil {
		return nil, fmt.Errorf("dataset: load %s train: %w", name, err)
	}
	test, testLabels, err := load("TEST")
	if err != nil {
		return nil, fmt.Errorf("dataset: load %s test: %w", name, err)
	}
	d := &Dataset{Name: name, Train: train, TrainLabels: trainLabels, Test: test, TestLabels: testLabels}
	normalizeLengths(d)
	return d, nil
}

// SaveUCR writes the dataset in the UCR directory layout under dir.
func SaveUCR(dir string, d *Dataset) error {
	base := filepath.Join(dir, d.Name)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	write := func(split string, series [][]float64, labels []int) error {
		path := filepath.Join(base, fmt.Sprintf("%s_%s.tsv", d.Name, split))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return WriteTSV(f, series, labels)
	}
	if err := write("TRAIN", d.Train, d.TrainLabels); err != nil {
		return err
	}
	return write("TEST", d.Test, d.TestLabels)
}

// normalizeLengths fills missing values and resamples every series to the
// longest length found in either split. A series without missing values
// keeps its parsed slice.
func normalizeLengths(d *Dataset) {
	maxLen := 0
	for _, s := range d.Train {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for _, s := range d.Test {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	fix := func(series [][]float64) {
		for i, s := range series {
			if hasNaN(s) {
				s = FillMissing(s)
			}
			if len(s) != maxLen {
				s = Resample(s, maxLen)
			}
			series[i] = s
		}
	}
	fix(d.Train)
	fix(d.Test)
}

func hasNaN(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) {
			return true
		}
	}
	return false
}
