package core

import (
	"slices"
	"sync"

	"sapla/internal/pqueue"
	"sapla/internal/repr"
	"sapla/internal/segment"
	"sapla/internal/ts"
)

// Reducer is a reusable SAPLA reduction workspace: it owns the working
// segmentation, the split/merge scratch states, the prefix-sum buffers, the
// split memo and the two bookkeeping heaps, so repeated reductions perform
// zero heap allocations after warm-up (ReduceInto) or allocate only the
// returned representation (Reduce). A Reducer is not safe for concurrent use;
// create one per goroutine, or go through SAPLA.Reduce, which draws from a
// pool.
type Reducer struct {
	cfg    SAPLA
	st     state
	sm, ms state // refine scratch
	prefix ts.Prefix
	splits splitMemo
	eta    *pqueue.Heap[struct{}]
	order  *pqueue.Heap[int]
}

// NewReducer returns a reusable reducer with the paper's default iteration
// budgets.
func NewReducer() *Reducer { return NewReducerFor(SAPLA{}) }

// NewReducerFor returns a reusable reducer for the given configuration.
func NewReducerFor(cfg SAPLA) *Reducer {
	return &Reducer{
		cfg:   cfg,
		eta:   pqueue.NewMinHeap[struct{}](),
		order: pqueue.NewMaxHeap[int](),
	}
}

// Name implements the reduce.Method interface.
func (*Reducer) Name() string { return "SAPLA" }

// Reduce reduces c to N = m/3 adaptive linear segments, allocating only the
// returned representation.
func (r *Reducer) Reduce(c ts.Series, m int) (repr.Representation, error) {
	out, err := r.ReduceInto(repr.Linear{}, c, m)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceInto reduces c to N = m/3 adaptive linear segments, writing the
// result into dst's segment buffer. With a dst recycled from a previous call
// the reduction performs zero heap allocations once the workspace has warmed
// up on the largest series length in play.
func (r *Reducer) ReduceInto(dst repr.Linear, c ts.Series, m int) (repr.Linear, error) {
	return r.reduce(dst, c, m, nil)
}

// reduce is ReduceInto; a non-nil stages receives freshly allocated copies of
// the segmentation after initialization and after the split & merge
// iteration (SAPLA.ReduceStages).
func (r *Reducer) reduce(dst repr.Linear, c ts.Series, m int, stages *[2]repr.Linear) (repr.Linear, error) {
	if err := c.Validate(); err != nil {
		return repr.Linear{}, err
	}
	nSeg, err := segmentCount(len(c), m)
	if err != nil {
		return repr.Linear{}, err
	}
	st := r.load(c)
	st.initialize(nSeg, r.eta)
	r.finish(nSeg, stages)
	// One sized slice, not appendRepr's doubling, for a dst that is empty
	// (Reduce) or too small.
	dst.Segs = slices.Grow(dst.Segs[:0], nSeg)
	out := st.appendRepr(dst)
	// Release the caller's series so the workspace does not pin it.
	st.c = nil
	return out, nil
}

// load points the working state at c, with c's prefix sums and an empty
// split memo, and returns it.
func (r *Reducer) load(c ts.Series) *state {
	r.prefix.Reset(c)
	r.splits.reset()
	st := &r.st
	st.c, st.p, st.exact, st.splits = c, &r.prefix, r.cfg.ExactBounds, &r.splits
	return st
}

// finish takes the initialization in the working state through the rest of
// the pipeline: the exact β of every segment in ExactBounds mode, the split &
// merge iteration (Algorithm 4.3) and the endpoint movement (Algorithms
// 4.4–4.5): N refinement passes and one endpoint-movement sweep. A non-nil
// stages receives freshly allocated copies of the segmentation after
// initialization and after the split & merge iteration.
func (r *Reducer) finish(nSeg int, stages *[2]repr.Linear) {
	st := &r.st
	if st.exact {
		for i := range st.segs {
			g := &st.segs[i]
			g.beta = segment.ExactMaxDeviation(st.c[g.start:g.end+1], g.line)
		}
	}
	if stages != nil {
		stages[0] = st.toRepr()
	}

	st.adjustToCount(nSeg)
	if !r.cfg.SkipRefine {
		st.refine(nSeg, &r.sm, &r.ms)
	}
	if stages != nil {
		stages[1] = st.toRepr()
	}

	if !r.cfg.SkipEndpointMove {
		st.moveEndpoints(r.order)
	}
}

// reducerPool backs SAPLA.Reduce: every facade-level reduction borrows a
// warmed-up workspace instead of reallocating state, segments and prefix
// sums per call.
var reducerPool = sync.Pool{New: func() any { return NewReducer() }}
