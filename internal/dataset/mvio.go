package dataset

// Multivariate panel I/O: the wide tab-separated layout used for
// multivariate archives. One series per line; the first field is the
// integer class label (parsed as ReadTSV parses it), the second the
// channel count d, and the remaining fields — at least one time step —
// are the observations in time-major order (t0c0 t0c1 ... t1c0 ...).
// Empty interior fields and "NaN" mark missing samples — the masked
// measures consume them directly, so unlike the univariate reader no
// interpolation is applied and an all-missing series is accepted. Series
// lengths may vary across rows (the dependent elastic measures run m-by-n
// DPs), but every row must declare the same channel count and its value
// count must divide evenly by it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/multivariate"
)

// ReadMVTSV parses one multivariate split in the wide layout. Like ReadTSV
// it reads the reader whole and names the first bad line.
func ReadMVTSV(r io.Reader) (series []multivariate.Series, labels []int, err error) {
	var buf bytes.Buffer
	_, readErr := io.Copy(&buf, r)
	series, labels, err = parseMVTSV(buf.Bytes())
	if err == nil && readErr != nil {
		return nil, nil, fmt.Errorf("dataset: scan: %v", readErr)
	}
	return series, labels, err
}

// parseMVTSV is ReadMVTSV over one buffer. Rows parse independently; the
// channel counts are compared with the first row's afterwards, in line
// order, between a row's checks up to its channel count and the checks
// after it, so the error is the one a row-by-row reader meets first.
func parseMVTSV(data []byte) ([]multivariate.Series, []int, error) {
	rows, splitErr := splitRows(data)
	if len(rows) == 0 {
		return nil, nil, splitErr
	}
	series := make([]multivariate.Series, len(rows))
	labels := make([]int, len(rows))
	channels := make([]int, len(rows)) // 0 where a row failed before its count
	errs := parseRows(len(rows), func(i int) (err error) {
		series[i], labels[i], channels[i], err = parseMVSeries(rows[i].text)
		return err
	})
	for i, d := range channels {
		switch {
		case d == 0:
			return nil, nil, rowError(rows[i], errs[i])
		case d != channels[0]:
			return nil, nil, rowError(rows[i], fmt.Errorf("channel count %d, want %d (all rows must agree)", d, channels[0]))
		case errs[i] != nil:
			return nil, nil, rowError(rows[i], errs[i])
		}
	}
	if splitErr != nil {
		return nil, nil, splitErr
	}
	return series, labels, nil
}

// parseMVSeries parses one row of the wide layout. It returns the row's
// channel count once it has parsed it, also with an error from a later
// check.
func parseMVSeries(text []byte) (s multivariate.Series, label, d int, err error) {
	f := newFields(text)
	if f.n < 2 {
		return nil, 0, 0, errors.New("need a label and a channel count")
	}
	if label, err = parseLabel(f.next()); err != nil {
		return nil, 0, 0, err
	}
	field := f.next()
	d, err = strconv.Atoi(string(bytes.TrimSpace(field)))
	if err != nil || d < 1 {
		return nil, 0, 0, fmt.Errorf("bad channel count %q", field)
	}
	if f.n == 0 {
		return nil, 0, d, errors.New("no values after the channel count")
	}
	if f.n%d != 0 {
		return nil, 0, d, fmt.Errorf("%d values not divisible by %d channels", f.n, d)
	}
	values := make([]float64, f.n)
	for i := range values {
		if values[i], _, err = parseValue(f.next()); err != nil {
			return nil, 0, d, err
		}
	}
	s = make(multivariate.Series, len(values)/d)
	for t := range s {
		s[t] = values[t*d : (t+1)*d : (t+1)*d]
	}
	return s, label, d, nil
}

// WriteMVTSV writes multivariate series in the wide layout ReadMVTSV
// parses. Every series must share one channel count; empty series are
// rejected (they carry no channel count to declare).
func WriteMVTSV(w io.Writer, series []multivariate.Series, labels []int) error {
	if len(series) != len(labels) {
		return fmt.Errorf("dataset: %d series, %d labels", len(series), len(labels))
	}
	channels := -1
	for i, s := range series {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("dataset: series %d: %v", i, err)
		}
		if channels == -1 {
			channels = s.Channels()
		} else if s.Channels() != channels {
			return fmt.Errorf("dataset: series %d has %d channels, want %d", i, s.Channels(), channels)
		}
	}
	bw := bufio.NewWriter(w)
	var line []byte
	for i, s := range series {
		line = strconv.AppendInt(line[:0], int64(labels[i]), 10)
		line = strconv.AppendInt(append(line, '\t'), int64(s.Channels()), 10)
		for t := range s {
			for _, v := range s[t] {
				line = appendValue(append(line, '\t'), v)
			}
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadMVUCR loads a multivariate dataset directory laid out as
// dir/Name/Name_TRAIN.tsv and dir/Name/Name_TEST.tsv in the wide layout.
// Missing samples stay NaN for the masked measures; no resampling is
// applied. The two splits must agree on channel count.
func LoadMVUCR(dir, name string) (*multivariate.Dataset, error) {
	load := func(split string) ([]multivariate.Series, []int, error) {
		data, err := os.ReadFile(filepath.Join(dir, name, fmt.Sprintf("%s_%s.tsv", name, split)))
		if err != nil {
			return nil, nil, err
		}
		return parseMVTSV(data)
	}
	train, trainLabels, err := load("TRAIN")
	if err != nil {
		return nil, fmt.Errorf("dataset: load %s train: %w", name, err)
	}
	test, testLabels, err := load("TEST")
	if err != nil {
		return nil, fmt.Errorf("dataset: load %s test: %w", name, err)
	}
	if len(train) > 0 && len(test) > 0 && train[0].Channels() != test[0].Channels() {
		return nil, fmt.Errorf("dataset: %s: train has %d channels, test %d",
			name, train[0].Channels(), test[0].Channels())
	}
	return &multivariate.Dataset{
		Name:  name,
		Train: train, TrainLabels: trainLabels,
		Test: test, TestLabels: testLabels,
	}, nil
}

// SaveMVUCR writes the multivariate dataset in the directory layout
// LoadMVUCR reads.
func SaveMVUCR(dir string, d *multivariate.Dataset) error {
	base := filepath.Join(dir, d.Name)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	write := func(split string, series []multivariate.Series, labels []int) error {
		path := filepath.Join(base, fmt.Sprintf("%s_%s.tsv", d.Name, split))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return WriteMVTSV(f, series, labels)
	}
	if err := write("TRAIN", d.Train, d.TrainLabels); err != nil {
		return err
	}
	return write("TEST", d.Test, d.TestLabels)
}
