package index

import (
	"slices"
	"sync"

	"sapla/internal/dist"
	"sapla/internal/pqueue"
	"sapla/internal/ts"
)

// Workspace holds the scratch state of one k-NN search: a tree search's
// best-first node frontier and query coefficients, and the answer set.
// Reusing one across queries makes the steady-state search allocation-free.
// Not safe for concurrent use: one per goroutine.
type Workspace struct {
	// ids is a tree search's frontier of node ids, keyed by node bound, and
	// stack a tree range's (tree.Range); qvec is the query's coefficient
	// vector, which the R-tree's MBR bound reads.
	ids   *pqueue.Heap[int32]
	stack []int32
	qvec  []float64
	// best is the search's one answer set under the canonical (distance, ID)
	// order (before): candidates are appended until it holds k, and from then
	// on it is a max-heap with the worst on top (offerBest). A sharded search
	// fills it across all its shards, so the answer is a pure function of the
	// stored entries, whatever the traversal order or shard count. search
	// sorts it and returns it.
	best []Result
	// radius is the search's fixed bound, which every tier prunes from as
	// long as it is below the set's worst (kth): a range query's radius
	// (rangeSearch), +Inf for a k-NN.
	radius float64
	// filt, seeds and order belong to the flat tier (Flat.collect): one
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
}

// NewWorkspace returns an empty search workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		ids:   pqueue.NewMinHeap[int32](),
		seeds: pqueue.NewMaxHeap[int32](),
	}
}

// search is every tier's KNNWith (radius +Inf) and pooledKNN's search: it
// empties the answer set, lets idx collect into it under radius, and returns
// it sorted under the canonical (distance, ID) order, or nil when it is
// empty. The returned slice aliases ws.
func search(idx Index, ws *Workspace, q dist.Query, k int, radius float64) ([]Result, SearchStats, error) {
	ws.best, ws.radius = ws.best[:0], radius
	if k <= 0 {
		return nil, SearchStats{}, nil
	}
	stats, err := idx.collect(ws, q, k)
	if err != nil || len(ws.best) == 0 {
		return nil, stats, err
	}
	sortResults(ws.best)
	return ws.best, stats, nil
}

// kth is the distance a search collecting k answers prunes from: the radius,
// or the worst of a full answer set if that is smaller.
func (ws *Workspace) kth(k int) float64 {
	if len(ws.best) < k {
		return ws.radius
	}
	return min(ws.radius, ws.best[0].Dist)
}

// offerBest feeds one measured candidate to the answer set and returns the
// updated kth. Once the set holds k, a candidate that does not precede its
// worst under the (distance, ID) order is dropped, and one that does
// replaces it.
func (ws *Workspace) offerBest(k int, exact float64, e *Entry) float64 {
	r := Result{Entry: e, Dist: exact}
	switch best := ws.best; {
	case len(best) < k:
		ws.best = append(best, r)
		if len(ws.best) == k {
			for i := k/2 - 1; i >= 0; i-- {
				siftDown(ws.best, i)
			}
		}
	case before(r, best[0]):
		best[0] = r
		siftDown(best, 0)
	}
	return ws.kth(k)
}

// siftDown restores the max-heap order under before below node i of h.
func siftDown(h []Result, i int) {
	for {
		worst, l := i, 2*i+1
		if l < len(h) && before(h[worst], h[l]) {
			worst = l
		}
		if r := l + 1; r < len(h) && before(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// wsPool backs the plain Index.KNN entry points and the range searches built
// on them: they borrow a workspace, search, and copy the answers out, so even
// the convenience path allocates only its returned slice.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// pooledKNN runs a search under radius (+Inf for a plain k-NN) on a pooled
// workspace and returns a caller-owned copy of the results within it: the
// sorted tail above radius, which the abandon margin (abandonLimit) can
// admit, is trimmed, and a radius that is not >= 0 (negative or NaN) admits
// nothing.
func pooledKNN(s Index, q dist.Query, k int, radius float64) ([]Result, SearchStats, error) {
	if !(radius >= 0) {
		return nil, SearchStats{}, nil
	}
	ws := wsPool.Get().(*Workspace)
	res, stats, err := search(s, ws, q, k, radius)
	n := len(res)
	for n > 0 && res[n-1].Dist > radius {
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
