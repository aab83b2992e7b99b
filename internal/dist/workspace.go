package dist

import (
	"sapla/internal/repr"
	"sapla/internal/ts"
)

// Workspace is a reusable scratch area for the distance hot paths. PAR and
// LB themselves walk the endpoint union of the two segmentations in place —
// they never materialise the partition — so the per-pair measures are
// allocation-free already; what a fresh query does allocate is its
// prefix-sum triple (NewQuery) and what batch evaluation allocates is the
// result matrix. A Workspace owns both, so steady-state batch distance work
// touches the heap not at all. Not safe for concurrent use: one per
// goroutine.
type Workspace struct {
	prefix ts.Prefix
	out    []float64
}

// NewWorkspace returns an empty distance workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// NewQuery prepares a query like the package-level NewQuery, but reuses the
// workspace's prefix-sum buffers. The returned Query aliases the workspace
// and stays valid only until the next NewQuery call on w.
func (w *Workspace) NewQuery(raw ts.Series, rep repr.Representation) Query {
	w.prefix.Reset(raw)
	return Query{Raw: raw, Prefix: &w.prefix, Rep: rep}
}

// PairwisePAR is the batch Dist_PAR kernel: it evaluates every query against
// every candidate, returning the row-major matrix out[qi*len(cs)+ci]. The
// returned slice aliases the workspace's reused buffer and stays valid until
// the next PairwisePAR call on w.
func (w *Workspace) PairwisePAR(qs, cs []repr.Linear) ([]float64, error) {
	n := len(qs) * len(cs)
	if cap(w.out) < n {
		w.out = make([]float64, n)
	}
	w.out = w.out[:n]
	for qi := range qs {
		row := w.out[qi*len(cs) : (qi+1)*len(cs)]
		for ci := range cs {
			d, err := PAR(qs[qi], cs[ci])
			if err != nil {
				return nil, err
			}
			row[ci] = d
		}
	}
	return w.out, nil
}
