// ECG similarity search: the workload the paper's introduction motivates.
// A "database" of heartbeat-like series is searched with 1-NN queries
// under several measures, comparing retrieval quality (does the neighbor
// share the query's class?) and wall-clock cost — a miniature of the
// paper's Figure 9 trade-off on a single realistic scenario, including
// LB_Keogh-pruned DTW search.
package main

import (
	"fmt"
	"time"

	repro "repro"
)

func main() {
	// Database of 200 beats from 4 morphological classes; queries are 50
	// held-out beats. Beats are misaligned (shifted R peaks) and locally
	// warped (heart-rate variation).
	d := repro.GenerateDataset(repro.DatasetConfig{
		Name: "ECGSearch", Family: repro.FamilyECG, Length: 256,
		NumClasses: 4, TrainSize: 200, TestSize: 50, Seed: 11,
		NoiseSigma: 0.2, ShiftFrac: 0.1, WarpFrac: 0.1, AmpJitter: 0.3,
	})
	fmt.Printf("database=%d beats, queries=%d, length=%d, classes=%d\n\n",
		len(d.Train), len(d.Test), d.Length(), d.NumClasses())

	measures := []repro.Measure{
		repro.Euclidean(),
		repro.Lorentzian(),
		repro.SBD(),
		repro.DTW(10),
		repro.MSM(0.5),
		repro.SINK(5),
	}
	fmt.Printf("%-14s %-10s %-12s %s\n", "measure", "hit-rate", "total", "per-query")
	for _, m := range measures {
		start := time.Now()
		e := repro.DistanceMatrix(m, d.Test, d.Train)
		hit := repro.OneNN(e, d.TestLabels, d.TrainLabels)
		elapsed := time.Since(start)
		fmt.Printf("%-14s %-10.4f %-12v %v\n",
			m.Name(), hit, elapsed.Round(time.Microsecond),
			(elapsed / time.Duration(len(d.Test))).Round(time.Microsecond))
	}

	// DTW search with lower-bound pruning: the classic way to make the
	// O(m^2) measure usable for search. The search engine prepares every
	// series' envelope once, skips each candidate whose LB_Kim/LB_Keogh
	// cascade cannot beat the best distance so far, and abandons the DTW
	// of the rest once it passes that distance.
	fmt.Println("\nDTW(10%) search with LB_Kim/LB_Keogh pruning:")
	pruned, total, correct := 0, 0, 0
	start := time.Now()
	for qi, q := range d.Test {
		best, _, p := repro.NNSearchDTW(q, d.Train, 10)
		pruned += p
		total += len(d.Train)
		if d.TrainLabels[best] == d.TestLabels[qi] {
			correct++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("hit-rate=%.4f pruned %d/%d DTW computations (%.1f%%), total=%v\n",
		float64(correct)/float64(len(d.Test)), pruned, total,
		100*float64(pruned)/float64(total), elapsed.Round(time.Microsecond))
}
