package index

import (
	"math"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// treeNode is the traversal surface both trees expose to the shared GEMINI
// best-first k-NN search. Children are addressed by index rather than
// returned as a slice so traversal never materialises a copy of the child
// list — the k-NN and range searches visit thousands of nodes per query and
// must not allocate while doing so.
type treeNode interface {
	IsLeaf() bool
	NumChildren() int
	Child(i int) treeNode
	Entries() []*Entry
}

// searcher is the tree side of the shared k-NN search: a query-to-node lower
// bound. It is an interface method rather than a closure so each KNN call
// does not allocate a bound capture.
type searcher interface {
	boundOf(q dist.Query, nd treeNode) float64
}

// knnSearch is the GEMINI branch-and-bound k-NN: nodes are visited in
// increasing bound order; leaf entries are filtered with the method's
// representation-space distance, and only entries whose filter distance
// beats the current k-th best are fetched for an exact Euclidean distance
// (those fetches are the paper's "time series which have to be measured").
// All scratch state lives in ws; the returned slice aliases ws and stays
// valid until its next use.
func knnSearch(ws *Workspace, s searcher, root treeNode, q dist.Query, k int,
	filter dist.FilterFunc) ([]Result, SearchStats, error) {

	var stats SearchStats
	if root == nil || k <= 0 {
		return nil, stats, nil
	}
	nodes := ws.nodes
	nodes.Reset()
	nodes.Push(0, root)
	best := ws.best // k current best, worst on top
	best.Reset()
	kth := math.Inf(1)

	for nodes.Len() > 0 {
		prio, nd := nodes.Pop()
		if prio > kth {
			break // every remaining node is at least this far
		}
		stats.NodesVisited++
		if !nd.IsLeaf() {
			for i, nc := 0, nd.NumChildren(); i < nc; i++ {
				ch := nd.Child(i)
				if b := s.boundOf(q, ch); b <= kth {
					nodes.Push(b, ch)
				}
			}
			continue
		}
		for _, e := range nd.Entries() {
			stats.Filtered++
			fd, err := filter(q, e.Rep)
			if err != nil {
				return nil, stats, err
			}
			if fd > kth {
				continue
			}
			stats.Measured++
			exact := math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw))
			kth = ws.offerBest(k, exact, e)
		}
	}
	return ws.drainResults(), stats, nil
}

// LinearScan is the exact baseline: every query measures every series.
type LinearScan struct {
	entries []*Entry
}

// NewLinearScan returns an empty linear-scan index.
func NewLinearScan() *LinearScan { return &LinearScan{} }

// Insert implements Index.
func (s *LinearScan) Insert(e *Entry) error {
	s.entries = append(s.entries, e)
	return nil
}

// Len implements Index.
func (s *LinearScan) Len() int { return len(s.entries) }

// KNN implements Index by exact exhaustive search.
func (s *LinearScan) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(s, q, k)
}

// KNNWith implements WorkspaceSearcher: exhaustive search through a
// k-bounded heap, so a scan over n entries costs O(n log k) and zero
// allocations instead of the sort-everything O(n log n).
func (s *LinearScan) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	stats := SearchStats{Measured: len(s.entries)}
	if k <= 0 {
		return nil, stats, nil
	}
	ws.best.Reset()
	for _, e := range s.entries {
		d := math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw))
		ws.offerBest(k, d, e)
	}
	return ws.drainResults(), stats, nil
}
