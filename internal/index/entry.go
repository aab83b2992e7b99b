// Package index implements the memory-resident indexes: the flat tier
// sapla-serve searches (Flat, with ConcurrentIndex and ShardedIndex around
// it), the two trees the paper evaluates, and a linear-scan baseline. The
// trees run on one skeleton — node and entry arenas, insert, delete and bulk
// load, the GEMINI branch-and-bound k-NN and range search, and the tree
// statistics of Figures 15–16 — with two covers: the classic Guttman R-tree's
// MBRs over representation coefficients (the APCA-style baseline) and the
// paper's DBCH-tree's distance hulls (Distance-Based Covering with Convex
// Hull, Sections 5.2–5.3).
package index

import (
	"fmt"

	"sapla/internal/dist"
	"sapla/internal/repr"
	"sapla/internal/ts"
)

// Entry is one indexed time series: its identifier, the raw series (the
// index is memory-based, matching the paper's setup), and its reduced
// representation under the index's method.
type Entry struct {
	ID  int
	Raw ts.Series
	Rep repr.Representation

	vec  []float64        // cached coefficient vector
	flat *dist.FlatLinear // cached flat PAR form; nil when not linear-convertible
}

// NewEntry builds an entry, caching the coefficient vector and the flat PAR
// form of linear-convertible representations. A nil representation is allowed
// for indexes that never filter (the linear scan).
func NewEntry(id int, raw ts.Series, rep repr.Representation) *Entry {
	e := &Entry{ID: id, Raw: raw, Rep: rep}
	if rep != nil {
		e.vec = rep.Coeffs()
		e.flat = dist.FlattenLinear(rep)
	}
	return e
}

// Vec returns the entry's coefficient vector.
func (e *Entry) Vec() []float64 { return e.vec }

// Index is a searchable collection of entries. Every index in this package
// implements it: the flat tier, both trees, the linear scan and the
// concurrent and sharded wrappers. Its unexported collect method keeps every
// implementation inside this package.
type Index interface {
	// Insert adds an entry.
	Insert(e *Entry) error
	// KNN returns the k nearest entries to the query under the index's
	// search strategy, along with search statistics.
	KNN(q dist.Query, k int) ([]Result, SearchStats, error)
	// KNNWith is KNN on a caller-supplied Workspace. The returned slice
	// aliases the workspace and stays valid only until the workspace's next
	// search.
	KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error)
	// collect offers ws's answer set (Workspace.offerBest) every stored entry
	// that can still enter the k best, pruning from ws.kth(k); search wraps
	// it into KNNWith. k is positive.
	collect(ws *Workspace, q dist.Query, k int) (SearchStats, error)
	// Range is the GEMINI framework's other query type: every stored series
	// within Euclidean distance radius of the query.
	Range(q dist.Query, radius float64) ([]Result, SearchStats, error)
	// Len returns the number of stored entries.
	Len() int
}

// Result is one k-NN answer.
type Result struct {
	Entry *Entry
	Dist  float64 // exact Euclidean distance
}

// SearchStats records the work a query performed. Measured drives the
// paper's pruning power ρ (Eq. 14): the number of stored series whose exact
// distance had to be computed.
type SearchStats struct {
	Measured     int // raw series fetched for exact distance computation
	NodesVisited int
	Filtered     int // representation-level distance evaluations
}

// Add accumulates st into s: per-shard work into a query's aggregate, or
// queries' work into a batch's.
func (s *SearchStats) Add(st SearchStats) {
	s.Measured += st.Measured
	s.NodesVisited += st.NodesVisited
	s.Filtered += st.Filtered
}

// TreeStats describes a tree's shape (Figures 15–16).
type TreeStats struct {
	InternalNodes int
	LeafNodes     int
	Height        int
	Entries       int
}

// TotalNodes returns internal + leaf node count.
func (s TreeStats) TotalNodes() int { return s.InternalNodes + s.LeafNodes }

// errDim reports an entry whose vector dimensionality does not match the
// index.
func errDim(want, got int) error {
	return fmt.Errorf("index: entry dimension %d, index dimension %d", got, want)
}
