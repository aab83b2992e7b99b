package core

import (
	"fmt"

	"sapla/internal/pqueue"
	"sapla/internal/repr"
	"sapla/internal/segment"
	"sapla/internal/ts"
)

// Online maintains a SAPLA segmentation of a growing stream: Append performs
// Algorithm 4.2's incremental work (O(1) fit update plus an O(log N)
// threshold check per point), and Snapshot finalises the current prefix with
// the split & merge and endpoint-movement iterations — the batch pipeline on
// the streamed initialization. A stream appended point-by-point produces
// exactly the segmentation the batch algorithm produces on the same series.
type Online struct {
	nSeg   int
	params SAPLA

	c   ts.Series
	eta *pqueue.Queue[struct{}]

	closed []seg
	// open segment state
	start int
	line  segment.Line
	maxD  float64
	beta  float64
}

// NewOnline starts an empty stream that will be segmented into nSeg adaptive
// linear segments (coefficient budget M = 3·nSeg). The params' iteration
// budgets apply to Snapshot.
func NewOnline(nSeg int, params SAPLA) (*Online, error) {
	if nSeg < 1 {
		return nil, fmt.Errorf("core: online segment count %d < 1", nSeg)
	}
	return &Online{nSeg: nSeg, params: params, eta: pqueue.NewMin[struct{}](), start: 0}, nil
}

// Len returns the number of points appended so far.
func (o *Online) Len() int { return len(o.c) }

// Append adds one point to the stream.
func (o *Online) Append(v float64) {
	o.c = append(o.c, v)
	pos := len(o.c) - 1
	l := pos - o.start // open-segment length before this point
	switch {
	case l == 0:
		// First point of the open segment.
		o.line = segment.Line{A: 0, B: v}
		o.maxD, o.beta = 0, 0
	case l == 1:
		// Second point: the interpolating line, matching Algorithm 4.2's
		// two-point segment seed. No cut check — the batch scan resumes two
		// positions after a cut.
		o.line = segment.Line{A: v - o.c[o.start], B: o.c[o.start]}
	default:
		inc := segment.Append(o.line, l, v)
		area := segment.IncrementArea(inc, o.line, l)
		capacity := o.nSeg - 1
		if capacity > 0 && (o.eta.Len() < capacity || area > o.eta.Peek().Priority) {
			if o.eta.Len() >= capacity {
				o.eta.Pop()
			}
			o.eta.Push(area, struct{}{})
			// Close the open segment before this point and open a new one.
			o.closed = append(o.closed, seg{line: o.line, start: o.start, end: pos - 1, beta: o.beta})
			o.start = pos
			o.line = segment.Line{A: 0, B: v}
			o.maxD, o.beta = 0, 0
			return
		}
		o.beta, o.maxD = segment.BetaInit(o.c[o.start:pos+1], inc, o.line, l, o.maxD)
		o.line = inc
	}
}

// Initialization returns the current streamed initialization (the closed
// segments plus the open one), without running the batch refinement.
func (o *Online) Initialization() (repr.Linear, error) {
	st, err := o.state()
	if err != nil {
		return repr.Linear{}, err
	}
	return st.toRepr(), nil
}

// Snapshot finalises the current prefix: the streamed initialization is run
// through the split & merge and endpoint-movement iterations, yielding the
// same result as the batch algorithm on the appended series. O(n) work per
// call (prefix-sum construction dominates).
func (o *Online) Snapshot() (repr.Linear, error) {
	st, err := o.state()
	if err != nil {
		return repr.Linear{}, err
	}
	st.adjustToCount(o.nSeg)
	if !o.params.SkipRefine {
		passes := o.params.RefinePasses
		if passes <= 0 {
			passes = o.nSeg
		}
		var sm, ms state
		st.refine(passes, &sm, &ms)
	}
	if !o.params.SkipEndpointMove {
		passes := o.params.MovePasses
		if passes <= 0 {
			passes = 1
		}
		order := pqueue.NewMaxHeap[int]()
		for p := 0; p < passes; p++ {
			if !st.moveEndpoints(order) {
				break
			}
		}
	}
	return st.toRepr(), nil
}

// state materialises the streamed segmentation as a batch working state.
func (o *Online) state() (*state, error) {
	n := len(o.c)
	if n < 2*o.nSeg {
		return nil, errBudget(3*o.nSeg, n)
	}
	st := &state{c: o.c, p: ts.NewPrefix(o.c), exact: o.params.ExactBounds, splits: new(splitMemo)}
	st.segs = append(st.segs, o.closed...)
	st.segs = append(st.segs, seg{line: o.line, start: o.start, end: n - 1, beta: o.beta})
	if o.params.ExactBounds {
		for i := range st.segs {
			g := &st.segs[i]
			g.beta = segment.ExactMaxDeviation(o.c[g.start:g.end+1], g.line)
		}
	}
	return st, nil
}
