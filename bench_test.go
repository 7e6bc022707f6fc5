package repro

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/sliding"
)

// This file holds one benchmark per table and figure of the paper's
// evaluation (the regeneration harness) plus the ablation benches called
// out in DESIGN.md §8. Benchmarks use a reduced archive so `go test
// -bench=.` completes on a laptop; `cmd/tsbench -full` runs the
// 128-dataset configuration.

// benchOpts is the shared reduced configuration.
func benchOpts() experiments.Options {
	return experiments.Options{
		Archive: dataset.GenerateArchive(dataset.ArchiveOptions{
			Seed: 1, Count: 12, MaxLength: 64, MaxTrain: 12, MaxTest: 16,
		}),
		GridStride: 5,
	}
}

func BenchmarkTable2LockStep(b *testing.B) {
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Table2(opts)
		if len(tab.Rows) == 0 {
			b.Fatal("Table 2 produced no rows")
		}
	}
}

func BenchmarkTable3Sliding(b *testing.B) {
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Table3(opts)
		if len(tab.Rows) == 0 {
			b.Fatal("Table 3 produced no rows")
		}
	}
}

func BenchmarkTable5Elastic(b *testing.B) {
	opts := benchOpts()
	opts.GridStride = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Table5(opts)
		if len(tab.Rows) == 0 {
			b.Fatal("Table 5 produced no rows")
		}
	}
}

func BenchmarkTable6Kernel(b *testing.B) {
	opts := benchOpts()
	opts.GridStride = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Table6(opts)
		if len(tab.Rows) == 0 {
			b.Fatal("Table 6 produced no rows")
		}
	}
}

func BenchmarkTable7Embedding(b *testing.B) {
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := experiments.Table7(opts)
		if len(tab.Rows) != 4 {
			b.Fatal("Table 7 should have 4 rows")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		experiments.Figure2(opts)
	}
}

func BenchmarkFigure3(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		experiments.Figure3(opts)
	}
}

func BenchmarkFigure4(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		experiments.Figure4(opts)
	}
}

func BenchmarkFigure5(b *testing.B) {
	opts := benchOpts()
	opts.GridStride = 10
	for i := 0; i < b.N; i++ {
		experiments.Figure5(opts)
	}
}

func BenchmarkFigure6(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		experiments.Figure6(opts)
	}
}

func BenchmarkFigure7(b *testing.B) {
	opts := benchOpts()
	opts.GridStride = 10
	for i := 0; i < b.N; i++ {
		experiments.Figure7(opts)
	}
}

func BenchmarkFigure8(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		experiments.Figure8(opts)
	}
}

func BenchmarkFigure9(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure9(opts)
		if len(pts) != 11 {
			b.Fatal("Figure 9 should have 11 points")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		experiments.Figure10(opts, 64, []int{8, 16, 32, 64})
	}
}

//
// ---- Ablation benches (DESIGN.md §8) ----
//

func randSeries(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// BenchmarkAblationFFTCrossCorrelation compares the FFT-backed
// cross-correlation against the naive O(m^2) sliding sum.
func BenchmarkAblationFFTCrossCorrelation(b *testing.B) {
	x := randSeries(1, 512)
	y := randSeries(2, 512)
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.CrossCorrelation(x, y)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.CrossCorrelationNaive(x, y)
		}
	})
}

// BenchmarkAblationSlidingPrepared compares SBD with and without the
// per-series prepared-FFT fast path.
func BenchmarkAblationSlidingPrepared(b *testing.B) {
	x := randSeries(3, 256)
	y := randSeries(4, 256)
	m := sliding.SBD()
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Distance(x, y)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		px, py := m.Prepare(x), m.Prepare(y)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.PreparedDistance(px, py)
		}
	})
}

// BenchmarkAblationDTWBand compares DTW with a 10% Sakoe-Chiba band
// against the unconstrained computation.
func BenchmarkAblationDTWBand(b *testing.B) {
	x := randSeries(5, 512)
	y := randSeries(6, 512)
	b.Run("band10", func(b *testing.B) {
		d := elastic.DTW{DeltaPercent: 10}
		for i := 0; i < b.N; i++ {
			d.Distance(x, y)
		}
	})
	b.Run("full", func(b *testing.B) {
		d := elastic.DTW{DeltaPercent: 100}
		for i := 0; i < b.N; i++ {
			d.Distance(x, y)
		}
	})
}

// BenchmarkAblationLBKeoghPruning measures 1-NN search with and without
// LB_Keogh pruning of the DTW comparisons.
func BenchmarkAblationLBKeoghPruning(b *testing.B) {
	d := dataset.Generate(dataset.Config{
		Name: "Prune", Family: dataset.FamilyECG, Length: 128,
		NumClasses: 2, TrainSize: 40, TestSize: 10, Seed: 7,
		NoiseSigma: 0.2, WarpFrac: 0.1,
	})
	dtw := elastic.DTW{DeltaPercent: 10}
	b.Run("nopruning", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range d.Test {
				best := -1.0
				for _, r := range d.Train {
					v := dtw.Distance(q, r)
					if best < 0 || v < best {
						best = v
					}
				}
			}
		}
	})
	b.Run("lbkeogh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range d.Test {
				NNSearchDTW(q, d.Train, 10)
			}
		}
	})
}

// BenchmarkAblationGRAILLandmarks sweeps the GRAIL landmark count, the
// accuracy/cost knob of the Nyström approximation.
func BenchmarkAblationGRAILLandmarks(b *testing.B) {
	d := dataset.Generate(dataset.Config{
		Name: "Grail", Family: dataset.FamilyHarmonic, Length: 64,
		NumClasses: 3, TrainSize: 30, TestSize: 15, Seed: 8,
		NoiseSigma: 0.2, ShiftFrac: 0.1,
	})
	for _, dim := range []int{5, 10, 20} {
		b.Run(map[int]string{5: "d5", 10: "d10", 20: "d20"}[dim], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := &embedding.GRAIL{Gamma: 5, Dim: dim, Seed: 1}
				g.Fit(d.Train)
				eval.Matrix(embedding.Measure{E: g}, d.Test, d.Train)
			}
		})
	}
}

// BenchmarkMatrixParallelism measures the full dissimilarity-matrix
// computation that dominates every experiment.
func BenchmarkMatrixParallelism(b *testing.B) {
	d := dataset.Generate(dataset.Config{
		Name: "Mat", Family: dataset.FamilyShapes, Length: 128,
		NumClasses: 2, TrainSize: 50, TestSize: 50, Seed: 9, NoiseSigma: 0.2,
	})
	b.Run("euclidean", func(b *testing.B) {
		m := Euclidean()
		for i := 0; i < b.N; i++ {
			eval.Matrix(m, d.Test, d.Train)
		}
	})
	b.Run("sbd", func(b *testing.B) {
		m := SBD()
		for i := 0; i < b.N; i++ {
			eval.Matrix(m, d.Test, d.Train)
		}
	})
	b.Run("dtw10", func(b *testing.B) {
		m := DTW(10)
		for i := 0; i < b.N; i++ {
			eval.Matrix(m, d.Test, d.Train)
		}
	})
}

// BenchmarkAblationISAX compares exact 1-NN search through the iSAX tree
// against the PAA filter-and-refine index and a plain linear scan.
func BenchmarkAblationISAX(b *testing.B) {
	d := dataset.Generate(dataset.Config{
		Name: "ISAXBench", Family: dataset.FamilyHarmonic, Length: 128,
		NumClasses: 4, TrainSize: 200, TestSize: 20, Seed: 10,
		NoiseSigma: 0.2,
	})
	b.Run("isax", func(b *testing.B) {
		ix := NewISAX(d.Length(), 16, 8)
		for _, r := range d.Train {
			ix.Insert(r)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range d.Test {
				ix.NN(q)
			}
		}
	})
	b.Run("paa", func(b *testing.B) {
		ix := NewEDIndex(d.Train, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range d.Test {
				ix.NN(q)
			}
		}
	})
	b.Run("linear", func(b *testing.B) {
		ed := Euclidean()
		for i := 0; i < b.N; i++ {
			for _, q := range d.Test {
				best := -1.0
				for _, r := range d.Train {
					if v := ed.Distance(q, r); best < 0 || v < best {
						best = v
					}
				}
			}
		}
	})
}
