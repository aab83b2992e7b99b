package index

import (
	"math"
	"sync"

	"sapla/internal/dist"
	"sapla/internal/pqueue"
	"sapla/internal/ts"
)

// Workspace holds the scratch state of one k-NN search: the best-first node
// frontier, the k-bounded result heap, and the result buffer the answers are
// drained into. Reusing one across queries makes the steady-state search
// allocation-free. Not safe for concurrent use: one per goroutine.
type Workspace struct {
	nodes *pqueue.Heap[treeNode] // R-tree / interface-based frontier
	ids   *pqueue.Heap[int32]    // DBCH arena frontier: ids never box into an interface
	// best is the k-bounded candidate heap, keyed by (exact distance,
	// entry ID). The ID tie key pins a canonical k-best even when distances
	// collide, so the answer set is a pure function of the stored entries —
	// independent of traversal order, and therefore identical whether the
	// entries live in one tree or are scattered across shards.
	best    *pqueue.TieHeap[*Entry]
	results []Result
	// cand and bound carry a scatter-gather search from shard to shard
	// (ShardedIndex.KNNWith): the running global top-k, and its k-th distance —
	// the bound Flat.KNNWith starts pruning from. Outside such a search bound
	// is +Inf.
	cand  []Result
	bound float64
	// filt and seeds belong to the flat tier (Flat.KNNWith): one filter
	// distance per slot, and the slots of the k smallest of them, worst on top.
	filt  []float64
	seeds *pqueue.Heap[int32]
	// env is the flat tier's per-query chunk envelope (Flat.queryEnvelope),
	// rebuilt by every search that sweeps block rows.
	env ts.Envelope
}

// NewWorkspace returns an empty search workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		nodes: pqueue.NewMinHeap[treeNode](),
		ids:   pqueue.NewMinHeap[int32](),
		best:  pqueue.NewMaxTieHeap[*Entry](),
		seeds: pqueue.NewMaxHeap[int32](),
		bound: math.Inf(1),
	}
}

// offerBest feeds one measured candidate to the k-bounded best heap under the
// canonical (distance, ID) order and returns the updated k-th-best distance
// bound. A candidate strictly worse than the current worst is dropped; an
// exact distance tie is decided by the smaller entry ID.
func (ws *Workspace) offerBest(k int, exact float64, e *Entry) float64 {
	best := ws.best
	if best.Len() < k {
		best.Push(exact, int64(e.ID), e)
	} else if exact < best.PeekPriority() ||
		(exact == best.PeekPriority() && int64(e.ID) < best.PeekTie()) { //sapla:floateq exact tie: the ID tie-break must fire only on bit-equal distances
		best.Pop()
		best.Push(exact, int64(e.ID), e)
	}
	if best.Len() == k {
		return best.PeekPriority()
	}
	return math.Inf(1)
}

// drainResults empties the best-heap into the reused result buffer in
// ascending (distance, ID) order. The returned slice aliases the workspace.
func (ws *Workspace) drainResults() []Result {
	n := ws.best.Len()
	if cap(ws.results) < n {
		ws.results = make([]Result, n)
	}
	ws.results = ws.results[:n]
	for i := n - 1; i >= 0; i-- {
		d, _, e := ws.best.Pop()
		ws.results[i] = Result{Entry: e, Dist: d}
	}
	return ws.results
}

// WorkspaceSearcher is implemented by indexes whose k-NN search can run on a
// caller-supplied Workspace. The returned slice aliases the workspace and
// stays valid only until the workspace's next search.
type WorkspaceSearcher interface {
	Index
	KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error)
}

// wsPool backs the plain Index.KNN entry points: they borrow a workspace,
// search, and copy the answers out, so even the convenience path allocates
// only its returned slice.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// pooledKNN runs a workspace search on a pooled workspace and returns a
// caller-owned copy of the results.
func pooledKNN(s WorkspaceSearcher, q dist.Query, k int) ([]Result, SearchStats, error) {
	ws := wsPool.Get().(*Workspace)
	res, stats, err := s.KNNWith(ws, q, k)
	var out []Result
	if len(res) > 0 {
		out = make([]Result, len(res))
		copy(out, res)
	}
	wsPool.Put(ws)
	return out, stats, err
}
