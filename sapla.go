// Package sapla is a Go implementation of "An Indexable Time Series
// Dimensionality Reduction Method for Maximum Deviation Reduction and
// Similarity Search" (Xue, Yu, Wang — EDBT 2022).
//
// It provides:
//
//   - SAPLA, the paper's Self-Adaptive Piecewise Linear Approximation, plus
//     the seven baselines it is compared against (APLA, APCA, PLA, PAA,
//     PAALM, CHEBY, SAX), all behind one Method interface;
//   - the lower-bounding distance measures of Section 5 (Dist_PAR, Dist_LB,
//     Dist_AE) and the baselines' own measures;
//   - two memory-resident indexes — a Guttman R-tree over coefficient MBRs
//     and the paper's DBCH-tree — with GEMINI branch-and-bound k-NN search;
//   - exact k-NN classification, motifs, discords, k-medoids and subsequences;
//   - a deterministic synthetic stand-in for the UCR2018 archive
//     (117 named datasets) and the experiment harness that regenerates every
//     figure and table of the paper's evaluation.
//
// Quick start:
//
//	rep, err := sapla.SAPLA().Reduce(series, 12) // N = 12/3 = 4 segments
//	rec := rep.Reconstruct()
//
// See the examples/ directory for runnable programs.
package sapla

import (
	"fmt"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/eval"
	"sapla/internal/index"
	"sapla/internal/mining"
	"sapla/internal/reduce"
	"sapla/internal/repr"
	"sapla/internal/subseq"
	"sapla/internal/ts"
	"sapla/internal/ucr"
)

// Core data types.
type (
	// Series is a univariate time series.
	Series = ts.Series
	// Representation is a reduced form of a series.
	Representation = repr.Representation
	// Linear is the adaptive piecewise-linear representation ⟨aᵢ, bᵢ, rᵢ⟩
	// produced by SAPLA, APLA and PLA.
	Linear = repr.Linear
	// Method is a dimensionality-reduction method.
	Method = reduce.Method
	// Query is a prepared k-NN query.
	Query = dist.Query
	// Entry is one indexed series.
	Entry = index.Entry
	// Index is a searchable collection (R-tree, DBCH-tree or linear scan).
	Index = index.Index
	// Result is one k-NN answer.
	Result = index.Result
	// SearchStats records per-query search work (pruning power numerator).
	SearchStats = index.SearchStats
	// TreeStats describes index shape (Figures 15–16).
	TreeStats = index.TreeStats
	// Dataset is a synthetic UCR2018 dataset descriptor.
	Dataset = ucr.Dataset
	// DataConfig scales dataset generation.
	DataConfig = ucr.Config
	// Instance is one generated series with its class label.
	Instance = ucr.Instance
)

// SAPLA returns the paper's method: adaptive piecewise-linear approximation
// with N = M/3 segments in O(n(N + log n)).
func SAPLA() *core.SAPLA { return core.New() }

// SAPLAStages runs SAPLA and returns the representation after each of its
// three stages (initialization, split & merge, endpoint movement) —
// the paper's Figures 5, 6 and 8.
func SAPLAStages(c Series, m int) (init, afterSplitMerge, final Linear, err error) {
	return core.New().ReduceStages(c, m)
}

// OnlineSAPLA maintains a SAPLA segmentation of a growing stream: O(1)-ish
// work per appended point, batch-identical snapshots on demand.
type OnlineSAPLA = core.Online

// NewOnlineSAPLA starts an empty stream segmented under coefficient budget
// m (N = m/3 segments).
func NewOnlineSAPLA(m int) (*OnlineSAPLA, error) {
	if m < 3 {
		return nil, fmt.Errorf("sapla: online budget M=%d < 3", m)
	}
	return core.NewOnline(m/3, core.SAPLA{})
}

// Reducer is a reusable SAPLA reduction workspace: after the first call it
// reduces series without heap allocations (prefix sums, segment buffers and
// priority queues are all recycled). Not safe for concurrent use — use one
// per goroutine, or the plain SAPLA().Reduce, which draws from an internal
// pool.
type Reducer = core.Reducer

// NewReducer returns a reusable reduction workspace with the default SAPLA
// configuration.
func NewReducer() *Reducer { return core.NewReducer() }

// SearchWorkspace holds one k-NN search's reusable scratch state (node
// frontier, answer set). Pass it to an index's KNNWith for
// allocation-free steady-state search. Not safe for concurrent use.
type SearchWorkspace = index.Workspace

// NewSearchWorkspace returns an empty search workspace.
func NewSearchWorkspace() *SearchWorkspace { return index.NewWorkspace() }

// BatchKNN answers many k-NN queries over one index concurrently on a
// work-stealing worker pool with per-worker reusable workspaces. Results
// are identical for any worker count; workers <= 0 means GOMAXPROCS.
func BatchKNN(idx Index, queries []Query, k, workers int) ([][]Result, []SearchStats, error) {
	return index.BatchKNN(idx, queries, k, workers)
}

// ConcurrentIndex makes any Index safe for concurrent readers and writers:
// searches hold a shared lock for their whole traversal and every mutation
// advances an epoch that stamps answers with the index version they
// correspond to. It backs the sapla-serve HTTP service.
type ConcurrentIndex = index.ConcurrentIndex

// NewConcurrentIndex wraps inner for concurrent use. The caller must stop
// using inner directly.
func NewConcurrentIndex(inner Index) *ConcurrentIndex { return index.NewConcurrent(inner) }

// ShardedIndex partitions entries across N independently locked shards by a
// stable hash of the entry ID. Writes to different shards proceed
// concurrently; k-NN and range answers are byte-identical to the
// single-shard answer for any shard count.
type ShardedIndex = index.ShardedIndex

// NewShardedIndex builds a sharded index, calling newInner once per shard to
// construct its tree.
func NewShardedIndex(shards int, newInner func(shard int) (Index, error)) (*ShardedIndex, error) {
	return index.NewSharded(shards, newInner)
}

// ShardOf reports the shard a series ID maps to. The hash is seedless and
// stable across processes — the routing a persisted per-shard WAL layout
// depends on.
func ShardOf(id, shards int) int { return index.ShardOf(id, shards) }

// Baseline method constructors (paper Table 1).
var (
	// APLA is the optimal-but-slow adaptive linear DP baseline, O(Nn²).
	APLA = func() Method { return reduce.NewAPLA() }
	// APCA is adaptive piecewise-constant approximation, O(n log n).
	APCA = func() Method { return reduce.NewAPCA() }
	// PLA is equal-length piecewise-linear approximation, O(n).
	PLA = func() Method { return reduce.NewPLA() }
	// PAA is piecewise aggregate approximation, O(n).
	PAA = func() Method { return reduce.NewPAA() }
	// PAALM is PAA with Lagrangian-multiplier smoothing, O(n).
	PAALM = func() Method { return reduce.NewPAALM() }
	// CHEBY is truncated Chebyshev approximation, O(Nn).
	CHEBY = func() Method { return reduce.NewCHEBY() }
	// SAX is symbolic aggregate approximation, O(n).
	SAX = func() Method { return reduce.NewSAX() }
)

// Methods returns all eight methods in the paper's comparison order.
func Methods() []Method {
	return append([]Method{core.New()}, reduce.Baselines()...)
}

// MethodByName returns the named method ("SAPLA", "APLA", "APCA", "PLA",
// "PAA", "PAALM", "CHEBY" or "SAX").
func MethodByName(name string) (Method, error) {
	for _, m := range Methods() {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("sapla: unknown method %q", name)
}

// Euclidean returns the Euclidean distance between two raw series.
func Euclidean(a, b Series) (float64, error) { return ts.Euclidean(a, b) }

// MaxDeviation returns the maximum absolute pointwise difference between a
// series and a reconstruction (paper Definition 3.4).
func MaxDeviation(c Series, rep Representation) float64 {
	return ts.MaxDeviation(c, rep.Reconstruct())
}

// DistPAR is the paper's lower-bounding, tight distance between two
// adaptive-length representations (Definition 5.1).
func DistPAR(q, c Representation) (float64, error) {
	ql, ok1 := dist.AsLinear(q)
	cl, ok2 := dist.AsLinear(c)
	if !ok1 || !ok2 {
		return 0, dist.ErrIncompatible
	}
	return dist.PAR(ql, cl)
}

// DistLB is the APCA-style guaranteed lower bound: the raw query projected
// onto the stored representation's segmentation.
func DistLB(q Series, c Representation) (float64, error) {
	return dist.Adaptive(dist.MeasureLB, dist.NewQuery(q, nil), c)
}

// DistAE is the tight (non-lower-bounding) approximation: the Euclidean
// distance between the raw query and the stored reconstruction.
func DistAE(q Series, c Representation) (float64, error) {
	return dist.AE(q, c)
}

// NewQuery prepares a raw series and its reduced form for k-NN search.
func NewQuery(raw Series, rep Representation) Query {
	return dist.NewQuery(raw, rep)
}

// NewEntry builds an index entry.
func NewEntry(id int, raw Series, rep Representation) *Entry {
	return index.NewEntry(id, raw, rep)
}

// DefaultMinFill and DefaultMaxFill are the paper's Section 6 node fill
// bounds.
const (
	DefaultMinFill = 2
	DefaultMaxFill = 5
)

// NewRTree builds an R-tree index for the given method over series of
// length n reduced with coefficient budget m.
func NewRTree(method string, n, m int) (*index.RTree, error) {
	return index.NewRTree(method, n, m, DefaultMinFill, DefaultMaxFill)
}

// NewDBCH builds the paper's DBCH-tree index for the given method.
func NewDBCH(method string) (*index.DBCH, error) {
	return index.NewDBCH(method, DefaultMinFill, DefaultMaxFill)
}

// NewLinearScan builds the exact linear-scan baseline.
func NewLinearScan() *index.LinearScan { return index.NewLinearScan() }

// Datasets returns the 117-dataset synthetic UCR2018 archive.
func Datasets() []Dataset { return ucr.Datasets() }

// DatasetByName returns one archive dataset by its UCR2018 name.
func DatasetByName(name string) (Dataset, error) { return ucr.ByName(name) }

// Data-mining tasks (the paper's motivating applications) and subsequence
// search over one long sequence (the GEMINI use case), exact on the flat tier.
type (
	// Classifier is a k-NN majority-vote classifier over an exact flat index.
	Classifier = mining.Classifier
	// MotifResult is the closest pair in a collection.
	MotifResult = mining.MotifResult
	// DiscordResult is the series least similar to everything else.
	DiscordResult = mining.DiscordResult
	// KMedoidsResult is a clustering of a collection.
	KMedoidsResult = mining.KMedoidsResult
	// SubseqIndex indexes the sliding windows of a long sequence.
	SubseqIndex = subseq.Index
	// SubseqMatch is one matching window.
	SubseqMatch = subseq.Match
	// SubseqOption configures a SubseqIndex.
	SubseqOption = subseq.Option
)

// NewClassifier builds a k-NN classifier with neighbourhood size k.
func NewClassifier(k int) (*Classifier, error) { return mining.NewClassifier(k) }

// Motif finds the closest pair of series.
func Motif(data []Series) (MotifResult, error) { return mining.Motif(data) }

// Discord finds the top-1 anomaly: the series farthest from its nearest neighbour.
func Discord(data []Series) (DiscordResult, error) { return mining.Discord(data) }

// KMedoids clusters the collection into k groups (PAM-style).
func KMedoids(data []Series, k, maxIter int) (KMedoidsResult, error) {
	return mining.KMedoids(data, k, maxIter)
}

// Subsequence options: index every s-th window only (a match may then be off
// by up to s−1 positions), or z-normalise every window, query and distance.
var (
	SubseqWithStride     = subseq.WithStride
	SubseqWithZNormalize = subseq.WithZNormalize
)

// NewSubseqIndex builds an exact subsequence index over long's windows of length w.
func NewSubseqIndex(long Series, w int, opts ...SubseqOption) (*SubseqIndex, error) {
	return subseq.New(long, w, opts...)
}

// Experiment harness re-exports (see internal/eval for row semantics).
type (
	// ExperimentOptions scales the paper-reproduction experiments.
	ExperimentOptions = eval.Options
	// ReductionRow is one bar of Figure 12.
	ReductionRow = eval.ReductionRow
	// IndexRow is one method × tree cell of Figures 13–16.
	IndexRow = eval.IndexRow
)

// DefaultExperiment is a minutes-scale experiment configuration;
// FullExperiment is the paper's 117×100×1024 scale.
var (
	DefaultExperiment = eval.DefaultOptions
	FullExperiment    = eval.FullOptions
)

// ReductionExperiment regenerates Figure 12 (max deviation and
// dimensionality-reduction time).
func ReductionExperiment(opt ExperimentOptions) ([]ReductionRow, error) {
	rows, _, err := eval.ReductionExperiment(opt)
	return rows, err
}

// IndexExperiment regenerates Figures 13–16 (pruning power, accuracy,
// ingest/k-NN time, tree shape) at coefficient budget m.
func IndexExperiment(opt ExperimentOptions, m int) ([]IndexRow, error) {
	rows, _, err := eval.IndexExperiment(opt, m)
	return rows, err
}
