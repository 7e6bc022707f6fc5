package search_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/search"
)

// TestPrunedSearchExactAcrossElasticGrids is the exactness property test:
// for every candidate of every elastic parameter grid, across a synthetic
// archive, the pruned engine must report the same predicted neighbor for
// every query — including tie-breaking — as exhaustive matrix evaluation.
// Any pruning bug (a lower bound that overshoots, an early abandon that
// returns an uncertified value, a tie broken differently) fails here.
func TestPrunedSearchExactAcrossElasticGrids(t *testing.T) {
	archive := dataset.GenerateArchive(dataset.ArchiveOptions{
		Seed: 3, Count: 4, MaxLength: 48, MaxTrain: 10, MaxTest: 12,
	})
	stride := 1
	if testing.Short() {
		stride = 4
	}
	for _, g := range eval.ElasticGrids() {
		g = eval.Thin(g, stride)
		for _, cand := range g.Candidates {
			for _, d := range archive {
				res := oneNN(cand, d.Test, d.Train)
				want := eval.Neighbors(eval.Matrix(cand, d.Test, d.Train))
				for i := range want {
					if res.Indices[i] != want[i] {
						t.Fatalf("%s on %s: query %d neighbor %d, exact %d",
							cand.Name(), d.Name, i, res.Indices[i], want[i])
					}
				}
				loo := search.LeaveOneOut(cand, d.Train)
				wantLoo := eval.LeaveOneOutNeighbors(eval.Matrix(cand, d.Train, d.Train))
				for i := range wantLoo {
					if loo.Indices[i] != wantLoo[i] {
						t.Fatalf("%s on %s: LOO row %d neighbor %d, exact %d",
							cand.Name(), d.Name, i, loo.Indices[i], wantLoo[i])
					}
				}
			}
		}
	}
}
