package core

import (
	"fmt"

	"sapla/internal/repr"
	"sapla/internal/ts"
)

// Online maintains a SAPLA segmentation of a growing stream. It is the batch
// pipeline fed one point at a time: Append takes Algorithm 4.2's step (O(1)
// fit update plus an O(log N) threshold check per point), and Snapshot loads
// the streamed initialization into its Reducer and finishes it there with the
// split & merge and endpoint-movement iterations. A stream appended
// point-by-point therefore produces exactly the segmentation the batch
// algorithm produces on the same series.
type Online struct {
	nSeg   int
	r      *Reducer // finishes snapshots; its η heap is the stream's
	c      ts.Series
	closed []seg
	scan   scan
}

// NewOnline starts an empty stream that will be segmented into nSeg adaptive
// linear segments (coefficient budget M = 3·nSeg). The params' iteration
// budgets apply to Snapshot.
func NewOnline(nSeg int, params SAPLA) (*Online, error) {
	if nSeg < 1 {
		return nil, fmt.Errorf("core: online segment count %d < 1", nSeg)
	}
	return &Online{nSeg: nSeg, r: NewReducerFor(params)}, nil
}

// Len returns the number of points appended so far.
func (o *Online) Len() int { return len(o.c) }

// Append adds one point to the stream.
func (o *Online) Append(v float64) {
	o.c = append(o.c, v)
	o.scan.extend(o.c, len(o.c)-1, o.r.eta, o.nSeg-1, &o.closed)
}

// Initialization returns the current streamed initialization (the closed
// segments plus the open one), without running the batch refinement.
func (o *Online) Initialization() (repr.Linear, error) {
	st, err := o.load()
	if err != nil {
		return repr.Linear{}, err
	}
	return st.toRepr(), nil
}

// Snapshot finalises the current prefix: the streamed initialization is run
// through the split & merge and endpoint-movement iterations, yielding the
// same result as the batch algorithm on the appended series. O(n) work per
// call (prefix-sum construction dominates); the Reducer's buffers are reused,
// so a warm Snapshot allocates only the returned representation.
func (o *Online) Snapshot() (repr.Linear, error) {
	st, err := o.load()
	if err != nil {
		return repr.Linear{}, err
	}
	o.r.finish(o.nSeg, nil)
	return st.toRepr(), nil
}

// load puts the streamed segmentation, the closed segments and the open one,
// into the Reducer's working state.
func (o *Online) load() (*state, error) {
	n := len(o.c)
	if n < 2*o.nSeg {
		return nil, errBudget(3*o.nSeg, n)
	}
	st := o.r.load(o.c)
	st.segs = append(append(st.segs[:0], o.closed...), o.scan.open(n-1))
	return st, nil
}
