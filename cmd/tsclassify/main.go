// Command tsclassify runs the 1-NN classifier of the paper's evaluation
// framework on one dataset with a chosen distance measure.
//
// Usage:
//
//	tsclassify -measure NAME [-norm NAME] [-supervised] [-archive DIR -dataset NAME]
//
// Without -archive, a synthetic demo dataset is generated. The -measure
// flag accepts any registry name (run with -list to see them); -supervised
// tunes the measure's Table 4 grid by leave-one-out on the training split.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/norm"
)

func main() {
	measureName := flag.String("measure", "euclidean", "measure registry name")
	normName := flag.String("norm", "", "normalization (zscore, minmax, ...); empty = data as stored")
	supervised := flag.Bool("supervised", false, "tune the Table 4 grid by leave-one-out")
	archiveDir := flag.String("archive", "", "UCR archive directory")
	datasetName := flag.String("dataset", "", "dataset name under -archive")
	list := flag.Bool("list", false, "list registered measures and exit")
	seed := flag.Int64("seed", 1, "seed for the demo dataset / embeddings")
	flag.Parse()

	if *list {
		for _, c := range core.Categories() {
			fmt.Printf("%s:\n", c)
			for _, e := range core.ByCategory(c) {
				fmt.Printf("  %s\n", e.Name)
			}
		}
		return
	}

	d, err := loadDataset(*archiveDir, *datasetName, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsclassify: %v\n", err)
		os.Exit(1)
	}

	var n norm.Normalizer
	if *normName != "" {
		if n = norm.ByName(*normName); n == nil {
			fmt.Fprintf(os.Stderr, "tsclassify: unknown normalization %q\n", *normName)
			os.Exit(2)
		}
	}

	entry, err := core.Lookup(*measureName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsclassify: %v\n", err)
		os.Exit(2)
	}

	// The eval paths below run under context.Background, which never
	// cancels, so their error results are always nil.
	switch {
	case entry.Category == core.Embedding:
		e, err := core.NewEmbedder(entry.Name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsclassify: %v\n", err)
			os.Exit(2)
		}
		nd := eval.Normalize(d, n)
		e.Fit(nd.Train)
		m := embedding.Measure{E: e}
		acc, _ := eval.TestAccuracyCtx(context.Background(), m, nd, nil)
		fmt.Printf("dataset=%s measure=%s protocol=fit/train accuracy=%.4f\n", d.Name, m.Name(), acc)
	case *supervised:
		if len(entry.Grid.Candidates) == 0 {
			fmt.Fprintf(os.Stderr, "tsclassify: %s is parameter-free; drop -supervised\n", entry.Name)
			os.Exit(2)
		}
		acc, chosen, _ := eval.SupervisedAccuracyCtx(context.Background(), entry.Grid, d, n)
		fmt.Printf("dataset=%s measure=%s protocol=loocv chosen=%s accuracy=%.4f\n",
			d.Name, entry.Name, chosen.Name(), acc)
	default:
		acc, _ := eval.TestAccuracyCtx(context.Background(), entry.Measure, d, n)
		fmt.Printf("dataset=%s measure=%s protocol=fixed accuracy=%.4f\n", d.Name, entry.Measure.Name(), acc)
	}
}

func loadDataset(dir, name string, seed int64) (*dataset.Dataset, error) {
	if dir != "" {
		if name == "" {
			return nil, fmt.Errorf("-archive requires -dataset")
		}
		d, err := dataset.LoadUCR(dir, name)
		if err != nil {
			return nil, err
		}
		return d.ZNormalizeAll(), nil
	}
	return dataset.Generate(dataset.Config{
		Name: "Demo", Family: dataset.FamilyECG, Length: 128,
		NumClasses: 3, TrainSize: 24, TestSize: 48, Seed: seed,
		NoiseSigma: 0.25, ShiftFrac: 0.12, WarpFrac: 0.08, AmpJitter: 0.2,
	}), nil
}
