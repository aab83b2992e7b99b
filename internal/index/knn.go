package index

import (
	"math"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// KNN implements Index.
func (t *tree[C]) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(t, q, k, math.Inf(1))
}

// KNNWith implements Index (search).
func (t *tree[C]) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	return search(t, ws, q, k, math.Inf(1))
}

// collect implements Index: the GEMINI branch-and-bound k-NN.
// Nodes are visited in increasing bound order off an int32 frontier, so
// traversal never boxes a node into an interface; leaf entries are filtered
// with the tree's representation-space distance, and only entries whose
// filter distance beats the current k-th best are fetched for an exact
// Euclidean distance (those fetches are the paper's "time series which have
// to be measured"). The bound starts at ws.kth(k) (+Inf, a range query's
// radius, or the worst of a set earlier shards filled) and never loosens.
func (t *tree[C]) collect(ws *Workspace, q dist.Query, k int) (SearchStats, error) {
	var stats SearchStats
	if t.root == nilNode {
		return stats, nil
	}
	ws.qvec = appendCoeffs(ws.qvec[:0], q.Rep)
	nodes := ws.ids
	nodes.Reset()
	nodes.Push(0, t.root)
	kth := ws.kth(k)

	for nodes.Len() > 0 {
		prio, nd := nodes.Pop()
		if prio > kth {
			break // every remaining node is at least this far
		}
		stats.NodesVisited++
		if !t.ar.isLeaf[nd] {
			for _, c := range t.ar.slotsOf(nd) {
				if b := t.cov.nodeBound(q, ws.qvec, c); b <= kth {
					nodes.Push(b, c)
				}
			}
			continue
		}
		for _, eid := range t.ar.slotsOf(nd) {
			e := t.ents[eid]
			stats.Filtered++
			fd, err := t.cov.filterEntry(q, e)
			if err != nil {
				return stats, err
			}
			if fd > kth {
				continue
			}
			stats.Measured++
			exact := math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw))
			kth = ws.offerBest(k, exact, e)
		}
	}
	return stats, nil
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
	return pooledKNN(s, q, k, math.Inf(1))
}

// KNNWith implements Index (search).
func (s *LinearScan) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	return search(s, ws, q, k, math.Inf(1))
}

// collect implements Index: exhaustive search through the k-bounded answer
// set, so a scan over n entries costs O(n log k) and zero allocations instead
// of the sort-everything O(n log n).
func (s *LinearScan) collect(ws *Workspace, q dist.Query, k int) (SearchStats, error) {
	for _, e := range s.entries {
		ws.offerBest(k, math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw)), e)
	}
	return SearchStats{Measured: len(s.entries)}, nil
}
