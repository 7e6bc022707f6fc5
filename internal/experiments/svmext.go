package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/eval"
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/run"
	"repro/internal/svm"
)

// This file implements the future-work experiment Section 9 of the paper
// defers: evaluating kernel measures under an SVM classifier instead of
// 1-NN. The paper observes (citing GRAIL) that kernels "achieve much
// higher accuracy under different evaluation frameworks (e.g., with SVM
// classifiers)"; ExtensionSVMCtx quantifies that on the synthetic archive.

// SVMRow compares a kernel under the two evaluation frameworks.
type SVMRow struct {
	Kernel   string
	OneNNAcc float64 // 1-NN over the kernel distance (the paper's protocol)
	SVMAcc   float64 // one-vs-rest kernel SVM over the same Gram matrices
}

// toKernel converts a kernel measure's distance value back into the
// normalized kernel value: SINK, KDTW, and RBF expose d = 1 - k̂, while
// GAK exposes the negative log-normalized kernel d = -log k̂.
func toKernel(m measure.Measure, d float64) float64 {
	if _, isGAK := m.(kernel.GAK); isGAK {
		return math.Exp(-d)
	}
	return 1 - d
}

// gramFromDist maps a distance matrix to the kernel Gram matrix.
func gramFromDist(m measure.Measure, dist [][]float64) [][]float64 {
	g := make([][]float64, len(dist))
	for i, row := range dist {
		g[i] = make([]float64, len(row))
		for j, d := range row {
			g[i][j] = toKernel(m, d)
		}
	}
	return g
}

// ExtensionSVMCtx evaluates each kernel function under both 1-NN and a
// one-vs-rest kernel SVM (C = 10) on every archive dataset, returning the
// mean accuracies. The same Gram matrices feed both classifiers, so the
// comparison isolates the evaluation framework. It honors cancellation
// (inside the matrix fills and between datasets — the SVM solver itself
// runs to completion per dataset) and reports per-kernel progress; on a
// non-nil error the rows are partial.
func ExtensionSVMCtx(ctx context.Context, opts Options, rep run.Reporter) ([]SVMRow, error) {
	opts = opts.Defaults()
	kernels := []measure.Measure{
		kernel.SINK{Gamma: 5},
		kernel.KDTW{Gamma: 0.125},
		kernel.GAK{Sigma: 0.1},
		kernel.RBF{Gamma: 2},
	}
	task := run.NewTask(rep, "svm", "kernels", len(kernels))
	rows := make([]SVMRow, 0, len(kernels))
	for _, k := range kernels {
		var nnSum, svmSum float64
		for i, d := range opts.Archive {
			distTest, err := eval.MatrixCtx(ctx, k, d.Test, d.Train)
			if err != nil {
				return rows, err
			}
			nnSum += eval.OneNN(distTest, d.TestLabels, d.TrainLabels)

			distTrain, err := eval.MatrixCtx(ctx, k, d.Train, d.Train)
			if err != nil {
				return rows, err
			}
			gTrain := gramFromDist(k, distTrain)
			gTest := gramFromDist(k, distTest)
			model := svm.Train(gTrain, d.TrainLabels, svm.Config{C: 10, Seed: int64(i + 1)})
			svmSum += model.Accuracy(gTest, d.TestLabels)
		}
		n := float64(len(opts.Archive))
		rows = append(rows, SVMRow{Kernel: k.Name(), OneNNAcc: nnSum / n, SVMAcc: svmSum / n})
		task.Step(k.Name())
	}
	task.Done()
	return rows, nil
}

// RenderSVM formats the extension-experiment rows.
func RenderSVM(rows []SVMRow) string {
	var b strings.Builder
	b.WriteString("Extension: kernel measures under 1-NN vs SVM (future work of Section 9)\n")
	fmt.Fprintf(&b, "%-16s %-10s %-10s %s\n", "Kernel", "1-NN", "SVM", "delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-10.4f %-10.4f %+.4f\n", r.Kernel, r.OneNNAcc, r.SVMAcc, r.SVMAcc-r.OneNNAcc)
	}
	return b.String()
}
