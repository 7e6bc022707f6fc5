package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// maxLineBytes caps one line of a TSV split. The readers' scanners start
// from bufio's small default buffer and double it up to this cap, so a
// split of a few kilobytes costs a few kilobytes; a longer line is a scan
// error.
const maxLineBytes = 1 << 24

// ReadTSV parses one split in the UCR tab-separated format: one series per
// line, the first field being the integer class label (float-formatted
// integers such as "1.0000000e+00" are accepted, any other label is an
// error), the remaining fields the observations. Empty interior fields
// and "NaN" become NaN (later interpolated); trailing separators are
// ignored. Both tabs and commas are accepted as separators and all three
// line-ending conventions (LF, CRLF, lone CR) are recognized, matching
// the layouts found in archive releases.
// A row whose observations are all missing cannot be interpolated and is
// rejected with an error.
func ReadTSV(r io.Reader) (series [][]float64, labels []int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes)
	sc.Split(scanLinesAnyEnding)
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
		label, err := parseLabel(fields[0])
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

// parseLabel parses a class label field: an integer that fits an int,
// written either plainly or float-formatted ("1.0000000e+00", as some
// archive releases do). NaN, infinities, fractions and out-of-range
// values are rejected: no int represents them.
func parseLabel(field string) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
	if err != nil {
		return 0, fmt.Errorf("bad label %q: %v", field, err)
	}
	if f != math.Trunc(f) || f < math.MinInt || f >= -math.MinInt {
		return 0, fmt.Errorf("bad label %q: not an integer in int range", field)
	}
	return int(f), nil
}

// scanLinesAnyEnding is a bufio.SplitFunc that terminates lines on LF, CRLF,
// or lone CR (classic Mac exports). bufio.ScanLines only strips the CR of a
// CRLF pair, so a CR-only file would arrive as one giant line.
func scanLinesAnyEnding(data []byte, atEOF bool) (advance int, token []byte, err error) {
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

// WriteTSV writes series in the UCR tab-separated format.
func WriteTSV(w io.Writer, series [][]float64, labels []int) error {
	if len(series) != len(labels) {
		return fmt.Errorf("dataset: %d series, %d labels", len(series), len(labels))
	}
	bw := bufio.NewWriter(w)
	for i, s := range series {
		if _, err := fmt.Fprintf(bw, "%d", labels[i]); err != nil {
			return err
		}
		for _, v := range s {
			var field string
			if math.IsNaN(v) {
				field = "NaN"
			} else {
				field = strconv.FormatFloat(v, 'g', -1, 64)
			}
			if _, err := bw.WriteString("\t" + field); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
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
		path := filepath.Join(dir, name, fmt.Sprintf("%s_%s.tsv", name, split))
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return ReadTSV(f)
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
// longest length found in either split.
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
			s = FillMissing(s)
			if len(s) != maxLen {
				s = Resample(s, maxLen)
			}
			series[i] = s
		}
	}
	fix(d.Train)
	fix(d.Test)
}
