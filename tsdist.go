// Package repro is a from-scratch Go reproduction of "Debunking Four
// Long-Standing Misconceptions of Time-Series Distance Measures"
// (Paparrizos, Liu, Elmore, Franklin; SIGMOD 2020).
//
// It provides the paper's complete measure inventory — 52 lock-step
// measures, 4 sliding (cross-correlation) measures, 7 elastic measures,
// 4 kernel functions, and 4 embedding measures — together with the 8
// time-series normalization methods, the 1-NN evaluation framework of
// Algorithm 1 (with supervised leave-one-out parameter tuning and the
// Table 4 grids), the statistical machinery (Wilcoxon signed-rank,
// Friedman + Nemenyi, critical-difference diagrams), a deterministic
// synthetic archive standing in for the UCR Time-Series Archive, and
// experiment drivers regenerating every table and figure of the paper's
// evaluation.
//
// This file is the public facade: it re-exports the library's types and
// the most common entry points. Examples under examples/ and the tools
// under cmd/ are written exclusively against this surface.
//
// Quick start:
//
//	d := repro.GenerateDataset(repro.DatasetConfig{
//		Name: "demo", Family: repro.FamilyECG, Length: 128,
//		NumClasses: 2, TrainSize: 20, TestSize: 40, Seed: 1,
//		NoiseSigma: 0.2, ShiftFrac: 0.1,
//	})
//	acc := repro.TestAccuracy(repro.SBD(), d, repro.ZScore())
package repro

import (
	"context"

	"repro/internal/ann"
	"repro/internal/dataset"
	"repro/internal/elastic"
	"repro/internal/embedding"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/index"
	"repro/internal/kernel"
	"repro/internal/kshape"
	"repro/internal/lockstep"
	"repro/internal/measure"
	"repro/internal/multivariate"
	"repro/internal/norm"
	"repro/internal/search"
	"repro/internal/sliding"
	"repro/internal/stats"
	"repro/internal/subsequence"
	"repro/internal/uncertain"
)

//
// ---- Core types ----
//

// Measure is a dissimilarity between two equal-length series; smaller
// means more similar. See the measure categories below for constructors.
type Measure = measure.Measure

// StatefulMeasure is the optional per-series precomputation fast path used
// when building full dissimilarity matrices.
type StatefulMeasure = measure.Stateful

// Normalizer transforms a single series as a preprocessing step.
type Normalizer = norm.Normalizer

// Dataset is a class-labelled dataset with a fixed train/test split.
type Dataset = dataset.Dataset

// DatasetConfig describes one synthetic dataset.
type DatasetConfig = dataset.Config

// Family selects a synthetic generator family.
type Family = dataset.Family

// Synthetic generator families, mirroring the UCR archive's data sources.
const (
	FamilyHarmonic = dataset.FamilyHarmonic
	FamilyBumps    = dataset.FamilyBumps
	FamilyCBF      = dataset.FamilyCBF
	FamilyShapes   = dataset.FamilyShapes
	FamilyECG      = dataset.FamilyECG
	FamilySpectro  = dataset.FamilySpectro
	FamilyDevice   = dataset.FamilyDevice
	FamilyWalk     = dataset.FamilyWalk
)

// ArchiveOptions controls synthetic archive generation.
type ArchiveOptions = dataset.ArchiveOptions

// Grid is a family of parameterized measure candidates for supervised
// tuning.
type Grid = eval.Grid

// Embedder learns a fixed-length similarity-preserving representation.
type Embedder = embedding.Embedder

//
// ---- Datasets ----
//

// GenerateDataset builds one synthetic dataset deterministically.
func GenerateDataset(cfg DatasetConfig) *Dataset { return dataset.Generate(cfg) }

// GenerateArchive builds a deterministic synthetic archive, the offline
// stand-in for the UCR Time-Series Archive (see DESIGN.md §4).
func GenerateArchive(opts ArchiveOptions) []*Dataset { return dataset.GenerateArchive(opts) }

// LoadUCR loads a real UCR-archive dataset directory (Name_TRAIN.tsv /
// Name_TEST.tsv), applying the paper's preprocessing (missing-value
// interpolation, resampling to the longest series).
func LoadUCR(dir, name string) (*Dataset, error) { return dataset.LoadUCR(dir, name) }

// SaveUCR writes a dataset in the UCR directory layout.
func SaveUCR(dir string, d *Dataset) error { return dataset.SaveUCR(dir, d) }

// ZNormalize z-scores one series (zero mean, unit variance).
func ZNormalize(x []float64) []float64 { return dataset.ZNormalize(x) }

//
// ---- Normalization methods (Section 4) ----
//

// ZScore returns the z-score normalizer, the literature's default.
func ZScore() Normalizer { return norm.ZScore() }

// MinMax returns the [0, 1] min-max normalizer.
func MinMax() Normalizer { return norm.MinMax() }

// MinMaxRange returns the [a, b] min-max normalizer.
func MinMaxRange(a, b float64) Normalizer { return norm.MinMaxRange(a, b) }

// MeanNorm returns the mean normalizer (z-score numerator over the value
// range).
func MeanNorm() Normalizer { return norm.MeanNorm() }

// MedianNorm returns the median normalizer.
func MedianNorm() Normalizer { return norm.MedianNorm() }

// UnitLength returns the unit-Euclidean-norm normalizer.
func UnitLength() Normalizer { return norm.UnitLength() }

// Logistic returns the sigmoid activation normalizer.
func Logistic() Normalizer { return norm.Logistic() }

// Tanh returns the hyperbolic tangent activation normalizer.
func Tanh() Normalizer { return norm.Tanh() }

// AllNormalizers returns the 8 per-series normalization methods.
func AllNormalizers() []Normalizer { return norm.All() }

// NormalizerByName resolves a normalizer by its registry name.
func NormalizerByName(name string) Normalizer { return norm.ByName(name) }

// AdaptiveScaling decorates a measure with the pairwise optimal-scaling
// transform of Section 4.
func AdaptiveScaling(m Measure) Measure { return norm.AdaptiveScaling(m) }

//
// ---- Lock-step measures (Section 5) ----
//

// Euclidean returns the L2 distance, the paper's lock-step baseline.
func Euclidean() Measure { return lockstep.Euclidean() }

// Manhattan returns the L1 distance.
func Manhattan() Measure { return lockstep.Manhattan() }

// Minkowski returns the L_p distance.
func Minkowski(p float64) Measure { return lockstep.Minkowski(p) }

// Chebyshev returns the L_inf distance.
func Chebyshev() Measure { return lockstep.Chebyshev() }

// Lorentzian returns the log-L1 distance, the new lock-step state of the
// art identified by Table 2.
func Lorentzian() Measure { return lockstep.Lorentzian() }

// Jaccard returns the Jaccard distance (strong under MeanNorm, Table 2).
func Jaccard() Measure { return lockstep.Jaccard() }

// Soergel returns the Soergel distance (strong under MinMax, Table 2).
func Soergel() Measure { return lockstep.Soergel() }

// Emanon4 returns the vicissitude chi-squared measure the paper surfaces
// as previously unknown to the time-series literature.
func Emanon4() Measure { return lockstep.Emanon4() }

// DISSIM returns the smoothing approximation of the DISSIM integral
// distance.
func DISSIM() Measure { return lockstep.DISSIM() }

// ASD returns the adaptive scaling distance.
func ASD() Measure { return lockstep.ASD() }

// AllLockStep returns the full 52-measure lock-step inventory (plus the
// bonus Emanon6).
func AllLockStep() []Measure { return lockstep.All() }

//
// ---- Sliding measures (Section 6) ----
//

// SBD returns NCCc, the coefficient-normalized cross-correlation distance
// (the shape-based distance of k-Shape) — the strong baseline of
// misconception M3.
func SBD() Measure { return sliding.SBD() }

// NCC returns the raw maximum cross-correlation measure.
func NCC() Measure { return sliding.New(sliding.NCC) }

// NCCb returns the biased-estimator cross-correlation measure.
func NCCb() Measure { return sliding.New(sliding.NCCb) }

// NCCu returns the unbiased-estimator cross-correlation measure.
func NCCu() Measure { return sliding.New(sliding.NCCu) }

// AllSliding returns the 4 cross-correlation variants of Table 3.
func AllSliding() []Measure { return sliding.All() }

//
// ---- Elastic measures (Section 7) ----
//

// DTW returns Dynamic Time Warping with a Sakoe-Chiba band of
// deltaPercent% of the length (100 disables the constraint).
func DTW(deltaPercent int) Measure { return elastic.DTW{DeltaPercent: deltaPercent} }

// LCSS returns the Longest Common Subsequence distance.
func LCSS(deltaPercent int, epsilon float64) Measure {
	return elastic.LCSS{DeltaPercent: deltaPercent, Epsilon: epsilon}
}

// EDR returns the Edit Distance on Real sequence.
func EDR(epsilon float64) Measure { return elastic.EDR{Epsilon: epsilon} }

// ERP returns the Edit distance with Real Penalty (gap value 0).
func ERP() Measure { return elastic.ERP{G: 0} }

// MSM returns the Move-Split-Merge metric — the measure Table 5 shows
// significantly outperforming DTW.
func MSM(c float64) Measure { return elastic.MSM{C: c} }

// TWE returns the Time Warp Edit distance.
func TWE(lambda, nu float64) Measure { return elastic.TWE{Lambda: lambda, Nu: nu} }

// Swale returns the Sequence Weighted Alignment distance.
func Swale(epsilon, p, r float64) Measure { return elastic.Swale{Epsilon: epsilon, P: p, R: r} }

// LBKeogh returns the LB_Keogh lower bound of DTW for an absolute band
// half-width w (used for pruning).
func LBKeogh(x, y []float64, w int) float64 { return elastic.LBKeogh(x, y, w) }

// NNSearchDTW runs pruned 1-NN search of query against refs under DTW with
// the given band percentage on the search engine, returning the nearest
// index (-1 when refs is empty), its distance, and the number of candidates
// pruned. pruned is the engine's Stats.LBPruned: it counts every candidate
// the full lower-bound cascade (LB_Kim, LB_Keogh against each envelope, and
// the reversed LB_Keogh) rejected without a DTW computation.
func NNSearchDTW(query []float64, refs [][]float64, deltaPercent int) (best int, dist float64, pruned int) {
	res := search.OneNN(elastic.DTW{DeltaPercent: deltaPercent}, [][]float64{query}, refs)
	return res.Indices[0], res.Distances[0], int(res.Stats.LBPruned)
}

// SearchResult holds per-query nearest-neighbor indices and distances from
// the pruned search engine, plus its work counters.
type SearchResult = search.Result

// SearchStats counts candidate pairs, lower-bound prunes, and full
// distance computations of a pruned search.
type SearchStats = search.Stats

// SearchIndex is a reference set prepared for repeated pruned 1-NN
// queries (lower-bound envelopes or stateful preparations built once).
type SearchIndex = search.Index

// NewSearchIndex prepares refs for pruned 1-NN queries under m; obtain a
// per-goroutine handle with its Querier method.
func NewSearchIndex(m Measure, refs [][]float64) *SearchIndex { return search.NewIndex(m, refs) }

// SearchOneNN finds every query's nearest reference through the pruned
// engine (lower-bound cascade + early abandoning), with neighbors —
// including ties — identical to exhaustive matrix evaluation.
func SearchOneNN(m Measure, queries, refs [][]float64) SearchResult {
	return search.OneNN(m, queries, refs)
}

// SearchLeaveOneOut finds each training series' nearest other training
// series, halving the work for exactly symmetric measures.
func SearchLeaveOneOut(m Measure, train [][]float64) SearchResult {
	return search.LeaveOneOut(m, train)
}

// AllElastic returns the 7 elastic measures at the paper's unsupervised
// parameter choices.
func AllElastic() []Measure { return elastic.All() }

// Elastic-measure extensions the paper surveys as future work (Section 7):

// DDTW returns Derivative DTW: DTW on first-derivative estimates.
func DDTW(deltaPercent int) Measure { return elastic.DDTW{DeltaPercent: deltaPercent} }

// WDTW returns Weighted DTW with logistic phase-difference weights.
func WDTW(g float64) Measure { return elastic.WDTW{G: g} }

// DDBlend returns the Górecki derivative blend
// (1-alpha)*DTW + alpha*DDTW.
func DDBlend(deltaPercent int, alpha float64) Measure {
	return elastic.DDBlend{DeltaPercent: deltaPercent, Alpha: alpha}
}

// CIDMeasure wraps a base measure with the complexity-invariant
// correction of Batista et al.
func CIDMeasure(base Measure) Measure { return elastic.CID{Base: base} }

//
// ---- Kernel measures (Section 8) ----
//

// RBF returns the radial basis function kernel distance 1 - k.
func RBF(gamma float64) Measure { return kernel.RBF{Gamma: gamma} }

// SINK returns the shift-invariant normalized kernel distance of GRAIL.
func SINK(gamma float64) Measure { return kernel.SINK{Gamma: gamma} }

// GAK returns Cuturi's global alignment kernel distance (log-space).
func GAK(sigma float64) Measure { return kernel.GAK{Sigma: sigma} }

// KDTW returns the regularized DTW kernel distance of Marteau & Gibet —
// the kernel Table 6 shows outperforming DTW in both settings.
func KDTW(gamma float64) Measure { return kernel.KDTW{Gamma: gamma} }

// AllKernels returns the 4 kernel measures at the paper's unsupervised
// parameter choices.
func AllKernels() []Measure { return kernel.All() }

//
// ---- Embedding measures (Section 9) ----
//

// NewGRAIL returns an unfitted GRAIL embedder (Nyström over SINK).
func NewGRAIL(gamma float64, seed int64) Embedder {
	return &embedding.GRAIL{Gamma: gamma, Seed: seed}
}

// NewRWS returns an unfitted Random Warping Series embedder.
func NewRWS(gamma float64, dmax int, seed int64) Embedder {
	return &embedding.RWS{Gamma: gamma, DMax: dmax, Seed: seed}
}

// NewSPIRAL returns an unfitted SPIRAL (DTW-preserving) embedder.
func NewSPIRAL(seed int64) Embedder { return &embedding.SPIRAL{Seed: seed} }

// NewSIDL returns an unfitted shift-invariant dictionary learning embedder.
func NewSIDL(lambda, r float64, seed int64) Embedder {
	return &embedding.SIDL{Lambda: lambda, R: r, Seed: seed}
}

// EmbeddingMeasure wraps a fitted embedder as a Measure (ED over
// representations).
func EmbeddingMeasure(e Embedder) Measure { return embedding.Measure{E: e} }

//
// ---- Evaluation framework (Section 3) ----
//

// DistanceMatrix computes E[i][j] = d(queries[i], refs[j]) in parallel,
// using the stateful fast path when the measure provides one.
func DistanceMatrix(m Measure, queries, refs [][]float64) [][]float64 {
	return eval.Matrix(m, queries, refs)
}

// OneNN is Algorithm 1: 1-NN classification accuracy from a test-by-train
// dissimilarity matrix.
func OneNN(e [][]float64, testLabels, trainLabels []int) float64 {
	return eval.OneNN(e, testLabels, trainLabels)
}

// LeaveOneOut computes the leave-one-out training accuracy from the square
// train-by-train matrix, the paper's supervised tuning criterion.
func LeaveOneOut(w [][]float64, labels []int) float64 { return eval.LeaveOneOut(w, labels) }

// TestAccuracy evaluates a fixed measure on a dataset under a normalizer
// (nil = data as stored).
func TestAccuracy(m Measure, d *Dataset, n Normalizer) float64 {
	return eval.TestAccuracy(m, d, n)
}

// SupervisedAccuracy tunes the grid by leave-one-out on the training split
// and reports test accuracy with the selected candidate.
func SupervisedAccuracy(g Grid, d *Dataset, n Normalizer) (float64, Measure) {
	return eval.SupervisedAccuracy(g, d, n)
}

// Parameter grids of Table 4.
var (
	MSMGrid       = eval.MSMGrid
	DTWGrid       = eval.DTWGrid
	EDRGrid       = eval.EDRGrid
	LCSSGrid      = eval.LCSSGrid
	TWEGrid       = eval.TWEGrid
	SwaleGrid     = eval.SwaleGrid
	ERPGrid       = eval.ERPGrid
	MinkowskiGrid = eval.MinkowskiGrid
	KDTWGrid      = eval.KDTWGrid
	GAKGrid       = eval.GAKGrid
	SINKGrid      = eval.SINKGrid
	RBFGrid       = eval.RBFGrid
)

//
// ---- Statistics ----
//

// WilcoxonResult is the outcome of the paired signed-rank test.
type WilcoxonResult = stats.WilcoxonResult

// Wilcoxon runs the two-sided Wilcoxon signed-rank test on paired
// accuracies (the paper's pairwise comparison at 95%).
func Wilcoxon(x, y []float64) WilcoxonResult { return stats.Wilcoxon(x, y) }

// FriedmanResult is the outcome of the Friedman test with the Nemenyi
// critical difference.
type FriedmanResult = stats.FriedmanResult

// Friedman runs the Friedman test over an n-datasets-by-k-methods score
// matrix (the paper's multi-measure comparison at 90%).
func Friedman(scores [][]float64, alpha float64) FriedmanResult {
	return stats.Friedman(scores, alpha)
}

// CriticalDifferenceDiagram renders an ASCII critical-difference diagram.
func CriticalDifferenceDiagram(names []string, avgRanks []float64, cd float64) string {
	return stats.CDDiagram(names, avgRanks, cd)
}

//
// ---- Experiments (Tables 2-7, Figures 1-10) ----
//

// ExperimentOptions configures the table/figure drivers.
type ExperimentOptions = experiments.Options

// ComparisonTable is a rendered measure-vs-baseline table.
type ComparisonTable = experiments.Table

// MeasureRanking is a Friedman/Nemenyi ranking (a CD figure).
type MeasureRanking = experiments.Ranking

// RuntimePoint is one point of the Figure 9 accuracy-to-runtime scatter.
type RuntimePoint = experiments.RuntimePoint

// ConvergencePoint is one point of the Figure 10 error-vs-train-size
// curves.
type ConvergencePoint = experiments.ConvergencePoint

// Experiment drivers, one per table and figure of the paper.
var (
	Table2  = experiments.Table2
	Table3  = experiments.Table3
	Table4  = experiments.Table4
	Table5  = experiments.Table5
	Table6  = experiments.Table6
	Table7  = experiments.Table7
	Figure1 = experiments.Figure1
	Figure2 = experiments.Figure2
	Figure3 = experiments.Figure3
	Figure4 = experiments.Figure4
	Figure5 = experiments.Figure5
	Figure6 = experiments.Figure6
	Figure7 = experiments.Figure7
	Figure8 = experiments.Figure8
	Figure9 = experiments.Figure9
)

// Figure10 reproduces the error-vs-training-size experiment.
func Figure10(opts ExperimentOptions, maxTrain int, sizes []int) []ConvergencePoint {
	return experiments.Figure10(opts, maxTrain, sizes)
}

// RenderRuntime formats Figure 9 points.
func RenderRuntime(points []RuntimePoint) string { return experiments.RenderRuntime(points) }

// RenderConvergence formats Figure 10 points.
func RenderConvergence(points []ConvergencePoint) string {
	return experiments.RenderConvergence(points)
}

// DefaultArchive returns the reduced synthetic archive used by tests and
// benches; FullArchive returns the 128-dataset configuration.
var (
	DefaultArchive = experiments.DefaultArchive
	FullArchive    = experiments.FullArchive
)

//
// ---- Downstream tasks (clustering, querying, motifs, anomalies) ----
//

// KShapeConfig configures a k-Shape clustering run.
type KShapeConfig = kshape.Config

// KShapeResult holds a k-Shape clustering.
type KShapeResult = kshape.Result

// KShape clusters z-normalized series with the k-Shape algorithm
// (Paparrizos & Gravano 2015), the SBD-based clustering method Section 6
// of the paper credits for renewing interest in sliding measures.
func KShape(series [][]float64, cfg KShapeConfig) KShapeResult {
	return kshape.Run(series, cfg)
}

// KShapeRestarts runs k-Shape from several initializations and keeps the
// tightest clustering (lowest sum of SBD to centroids).
func KShapeRestarts(series [][]float64, cfg KShapeConfig, restarts int) KShapeResult {
	return kshape.RunRestarts(series, cfg, restarts)
}

// RandIndex scores agreement between two labelings (1 = identical
// partitions).
func RandIndex(a, b []int) float64 { return kshape.RandIndex(a, b) }

// AdjustedRandIndex scores chance-corrected agreement between two
// labelings.
func AdjustedRandIndex(a, b []int) float64 { return kshape.AdjustedRandIndex(a, b) }

// SubsequenceMatch is one subsequence-search hit.
type SubsequenceMatch = subsequence.Match

// DistanceProfile computes the z-normalized ED between query q and every
// subsequence of t via the FFT-based MASS algorithm, O(n log n).
func DistanceProfile(t, q []float64) []float64 { return subsequence.DistanceProfile(t, q) }

// TopKMatches returns the k best non-overlapping matches of q in t.
func TopKMatches(t, q []float64, k int) []SubsequenceMatch { return subsequence.TopK(t, q, k) }

// MatrixProfile computes the self-join matrix profile of t for window w:
// each subsequence's z-normalized distance to its nearest non-trivial
// neighbor, the primitive behind motif discovery and anomaly detection.
// It runs on the STOMP streaming engine (internal/profile), O(n^2) total
// work instead of STAMP's O(n^2 log n).
func MatrixProfile(t []float64, w int) (profile []float64, index []int) {
	return subsequence.MatrixProfile(t, w)
}

// ABMatrixProfile computes the AB-join matrix profile: for each window of
// a, its z-normalized distance to the nearest window of b, with no
// exclusion zone (the two series are distinct by assumption).
func ABMatrixProfile(a, b []float64, w int) (profile []float64, index []int) {
	return subsequence.ABProfile(a, b, w)
}

// Motif returns the best motif pair of t for window w, or (-1, -1, +Inf)
// when no window has a valid non-trivial neighbor.
func Motif(t []float64, w int) (i, j int, dist float64) { return subsequence.Motif(t, w) }

// Discord returns the top anomaly of t for window w, or (-1, +Inf) when
// every profile entry is undefined (e.g. the exclusion zone covers all
// neighbors).
func Discord(t []float64, w int) (offset int, dist float64) { return subsequence.Discord(t, w) }

//
// ---- Indexing (the M2 theme: which measures are indexable) ----
//

// PAA computes the piecewise aggregate approximation of x.
func PAA(x []float64, segments int) []float64 { return index.PAA(x, segments) }

// LBPAA returns the PAA lower bound of the Euclidean distance.
func LBPAA(a, b []float64, m int) float64 { return index.LBPAA(a, b, m) }

// EDIndex is a GEMINI-style filter-and-refine Euclidean 1-NN index.
type EDIndex = index.EDIndex

// IndexStats reports the work performed by an index search.
type IndexStats = index.Stats

// NewEDIndex builds a PAA-lower-bounded Euclidean index over the
// references.
func NewEDIndex(refs [][]float64, segments int) *EDIndex { return index.NewEDIndex(refs, segments) }

// VPTree is an exact metric index usable with the paper's metric elastic
// measures (MSM, ERP, TWE) as well as ED.
type VPTree = index.VPTree

// NewVPTree builds a vantage-point tree over the references under a metric
// measure.
func NewVPTree(refs [][]float64, m Measure, seed int64) *VPTree {
	return index.NewVPTree(refs, m, seed)
}

// Neighbor is one k-NN result: a reference index and its sanitized
// distance (NaN mapped to +Inf so undefined pairs rank last).
type Neighbor = index.Neighbor

// ANNConfig parameterizes the approximate retrieval engine: embedding
// dimension, SINK gamma, the candidate budget (the recall knob; 0 =
// adaptive default, >= corpus size = exact fallback), and the seed.
type ANNConfig = ann.Config

// ANNIndex is a fitted GRAIL embed-index-rerank structure: corpus series
// are embedded once and indexed in a k-NN VP-tree; queries re-rank the
// top-c embedding-space candidates with the exact measure. Immutable and
// safe for concurrent use through per-goroutine Queriers.
type ANNIndex = ann.Index

// BuildANN fits the embedder on refs and builds the approximate index
// for queries under m.
func BuildANN(refs [][]float64, m Measure, cfg ANNConfig) *ANNIndex {
	return ann.Build(refs, m, cfg)
}

// ApproxResult is the outcome of an approximate search: per-query
// nearest indices with exact distances, plus work counters.
type ApproxResult = search.ApproxResult

// OneNNApprox answers every query with its approximate nearest reference
// under m: only the candidate set is approximate, reported distances are
// exact, and candidate budgets covering the corpus make the result
// identical to exact search.
func OneNNApprox(m Measure, queries, refs [][]float64, cfg ANNConfig) ApproxResult {
	return search.OneNNApprox(m, queries, refs, cfg)
}

// KNNApprox answers every query with its approximate k nearest
// references, sorted by (exact distance, index).
func KNNApprox(m Measure, queries, refs [][]float64, k int, cfg ANNConfig) ApproxResult {
	return search.KNNApprox(m, queries, refs, k, cfg)
}

// SAX is the symbolic aggregate approximation scheme with its MINDIST
// lower bound (the representation behind iSAX).
type SAX = index.SAX

// ISAX is the iSAX tree index (Shieh & Keogh): approximate search in one
// leaf visit, exact search via best-first MINDIST traversal.
type ISAX = index.ISAX

// NewISAX builds an empty iSAX index for z-normalized series of length m.
func NewISAX(m, segments, leafCapacity int) *ISAX {
	return index.NewISAX(m, segments, leafCapacity)
}

// NewSAX builds a SAX scheme with the given PAA segments and alphabet size
// (2..16).
func NewSAX(segments, alphabet int) *SAX { return index.NewSAX(segments, alphabet) }

// DFTCoefficients returns the first k normalized Fourier coefficients of x
// for the GEMINI lower bound.
func DFTCoefficients(x []float64, k int) []complex128 { return index.DFTCoefficients(x, k) }

// DFTLowerBound returns the Fourier lower bound of ED from truncated
// coefficient sets.
func DFTLowerBound(a, b []complex128) float64 { return index.DFTLowerBound(a, b) }

//
// ---- Multivariate extension (the paper's footnote-1 future work) ----
//

// MVSeries is a multivariate time series: MVSeries[t][c] is channel c at
// time t.
type MVSeries = multivariate.Series

// MVMeasure is a dissimilarity over multivariate series.
type MVMeasure = multivariate.Measure

// MVEuclidean returns the vector lock-step Euclidean distance.
func MVEuclidean() MVMeasure { return multivariate.Euclidean{} }

// MVDTWDependent returns multivariate DTW with one shared warping path
// over vector points (DTW-D).
func MVDTWDependent(deltaPercent int) MVMeasure {
	return multivariate.DTWDependent{DeltaPercent: deltaPercent}
}

// MVDTWIndependent returns multivariate DTW with one warping path per
// channel (DTW-I).
func MVDTWIndependent(deltaPercent int) MVMeasure {
	return multivariate.DTWIndependent{DeltaPercent: deltaPercent}
}

// MVIndependent lifts any univariate measure to multivariate series by
// summing it over channels.
func MVIndependent(base Measure) MVMeasure { return multivariate.Independent{Base: base} }

// MVERPDependent returns multivariate ERP with one warping path over
// vector points (L1 point and gap costs); unequal lengths are supported.
func MVERPDependent(g float64) MVMeasure { return multivariate.ERPDependent{G: g} }

// MVMSMDependent returns multivariate Move-Split-Merge with one warping
// path over vector points; unequal lengths are supported.
func MVMSMDependent(c float64) MVMeasure { return multivariate.MSMDependent{C: c} }

// MVMaskedEuclidean returns the NaN-masked vector Euclidean distance with
// valid-pair normalization and the given per-channel minimum-support
// fraction (NaN marks a missing sample).
func MVMaskedEuclidean(minSupport float64) MVMeasure { return multivariate.MaskedEuclidean(minSupport) }

// MVMaskedManhattan returns the NaN-masked per-channel Manhattan distance
// with valid-pair normalization and the given minimum-support fraction.
func MVMaskedManhattan(minSupport float64) MVMeasure { return multivariate.MaskedManhattan(minSupport) }

// MVSoftDTW returns multivariate soft-DTW with temperature gamma; with
// normalize set, distances are self-distance normalized so identical
// series score zero.
func MVSoftDTW(gamma float64, normalize bool) MVMeasure {
	return multivariate.SoftDTW{Gamma: gamma, Normalize: normalize}
}

// MVOneNN runs the 1-NN evaluation over multivariate splits. An empty
// train set predicts no labels (accuracy 0) rather than panicking.
func MVOneNN(m MVMeasure, train []MVSeries, trainLabels []int, test []MVSeries, testLabels []int) float64 {
	return multivariate.OneNN(m, train, trainLabels, test, testLabels)
}

// MVClassify finds each test series' nearest train series under m, in
// parallel with cooperative cancellation. An empty train set yields
// (-1, +Inf) per query.
func MVClassify(ctx context.Context, m MVMeasure, train, test []MVSeries) ([]int, []float64, error) {
	return multivariate.Classify(ctx, m, train, test)
}

//
// ---- Uncertain extension (the paper's footnote-1 future work) ----
//

// UncertainSeries is a series whose observations carry Gaussian error
// estimates.
type UncertainSeries = uncertain.Series

// UncertainFromCertain wraps an exact series with zero uncertainty.
func UncertainFromCertain(x []float64) UncertainSeries { return uncertain.FromCertain(x) }

// UncertainExpectedED returns the square root of the expected squared
// Euclidean distance under independent Gaussian errors.
func UncertainExpectedED(x, y UncertainSeries) float64 { return uncertain.ExpectedED(x, y) }

// UncertainDUST returns the uncertainty-normalized DUST-style
// dissimilarity.
func UncertainDUST(x, y UncertainSeries, eps float64) float64 { return uncertain.DUST(x, y, eps) }

// UncertainProbCloser estimates P(dist(q, a) < dist(q, b)) under the
// Gaussian error model.
func UncertainProbCloser(q, a, b UncertainSeries) float64 { return uncertain.ProbCloser(q, a, b) }

// UncertainOneNN runs expected-distance 1-NN over uncertain splits.
func UncertainOneNN(train []UncertainSeries, trainLabels []int, test []UncertainSeries, testLabels []int) float64 {
	return uncertain.OneNN(train, trainLabels, test, testLabels)
}

//
// ---- Multiple-comparison corrections ----
//

// HolmCorrection applies the Holm step-down correction to a family of
// p-values, returning per-hypothesis rejection decisions.
func HolmCorrection(pvalues []float64, alpha float64) []bool {
	return stats.HolmCorrection(pvalues, alpha)
}

// BonferroniCorrection applies the Bonferroni correction.
func BonferroniCorrection(pvalues []float64, alpha float64) []bool {
	return stats.BonferroniCorrection(pvalues, alpha)
}
