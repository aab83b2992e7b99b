package index

import (
	"math"
	"slices"
	"sync"

	"sapla/internal/dist"
	"sapla/internal/pqueue"
	"sapla/internal/ts"
)

// Workspace holds the scratch state of one k-NN search: a tree search's
// best-first node frontier and query coefficients, the k-bounded result heap,
// and the result buffer the answers are drained into. Reusing one across
// queries makes the steady-state search allocation-free. Not safe for
// concurrent use: one per goroutine.
type Workspace struct {
	// ids is a tree search's frontier of node ids, keyed by node bound, and
	// stack a tree range's (tree.Range); qvec is the query's coefficient
	// vector, which the R-tree's MBR bound reads.
	ids   *pqueue.Heap[int32]
	stack []int32
	qvec  []float64
	// best is the k-bounded candidate heap, keyed by (exact distance,
	// entry ID). The ID tie key pins a canonical k-best even when distances
	// collide, so the answer set is a pure function of the stored entries —
	// independent of traversal order, and therefore identical whether the
	// entries live in one tree or are scattered across shards.
	best    *pqueue.TieHeap[*Entry]
	results []Result
	// cand carries a scatter-gather search's running global top-k from shard
	// to shard (ShardedIndex.KNNWith). bound is what every searching tier's
	// KNNWith starts pruning from: a range query's radius (rangeSearch), or
	// the k-th distance the shards so far earned if that is smaller. Outside
	// such a search it is +Inf.
	cand  []Result
	bound float64
	// filt, seeds and order belong to the flat tier (Flat.KNNWith): one
	// filter distance per slot, the slots of the k smallest of them, worst on
	// top, and those slots in the order the heap gives them up.
	filt  []float64
	seeds *pqueue.Heap[int32]
	order []int32
	// env is the flat tier's per-query chunk envelope (Flat.queryEnvelope),
	// rebuilt by every search that sweeps block rows; group is its refinement
	// kernel's four lanes (Flat.refineSlots).
	env   ts.Envelope
	group ts.RefineGroup
	// merged is where mergeTopK builds the next running top-k; it and cand
	// swap.
	merged []Result
}

// NewWorkspace returns an empty search workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
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

// wsPool backs the plain Index.KNN entry points and the range searches built
// on them: they borrow a workspace, search, and copy the answers out, so even
// the convenience path allocates only its returned slice.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// pooledKNN runs a workspace search handed bound (ws.bound; +Inf for a plain
// k-NN) on a pooled workspace and returns a caller-owned copy of the results
// within it: the sorted tail above bound, which the abandon margin
// (abandonLimit) can admit, is trimmed, and a bound that is not >= 0
// (negative or NaN) admits nothing.
func pooledKNN(s Index, q dist.Query, k int, bound float64) ([]Result, SearchStats, error) {
	if !(bound >= 0) {
		return nil, SearchStats{}, nil
	}
	ws := wsPool.Get().(*Workspace)
	ws.bound = bound
	res, stats, err := s.KNNWith(ws, q, k)
	ws.bound = math.Inf(1)
	n := len(res)
	for n > 0 && res[n-1].Dist > bound {
		n--
	}
	res = res[:n]
	var out []Result
	if len(res) > 0 {
		out = slices.Clone(res)
	}
	wsPool.Put(ws)
	return out, stats, err
}
