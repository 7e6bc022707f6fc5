package dataset

// Multivariate panel I/O: the wide tab-separated layout used for
// multivariate archives. One series per line; the first field is the
// integer class label, the second the channel count d, and the remaining
// fields are the observations in time-major order (t0c0 t0c1 ... t1c0
// ...). Empty interior fields and "NaN" mark missing samples — the masked
// measures consume them directly, so unlike the univariate reader no
// interpolation is applied and an all-missing series is accepted. Series
// lengths may vary across rows (the dependent elastic measures run m-by-n
// DPs), but every row must declare the same channel count and its value
// count must divide evenly by it.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/multivariate"
)

// ReadMVTSV parses one multivariate split in the wide layout.
func ReadMVTSV(r io.Reader) (series []multivariate.Series, labels []int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	sc.Split(scanLinesAnyEnding)
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
		labelFloat, err := strconv.ParseFloat(strings.TrimSpace(fields[0]), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: line %d: bad label %q: %v", line, fields[0], err)
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
		labels = append(labels, int(labelFloat))
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("dataset: scan: %v", err)
	}
	return series, labels, nil
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
	for i, s := range series {
		if _, err := fmt.Fprintf(bw, "%d\t%d", labels[i], s.Channels()); err != nil {
			return err
		}
		for t := range s {
			for _, v := range s[t] {
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
		}
		if err := bw.WriteByte('\n'); err != nil {
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
		path := filepath.Join(dir, name, fmt.Sprintf("%s_%s.tsv", name, split))
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		return ReadMVTSV(f)
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
