package index

import (
	"fmt"
	"math"
	"sort"

	"sapla/internal/dist"
)

// DBCH is the paper's Distance-Based Covering with Convex Hull tree
// (Sections 5.2–5.3): node splitting and branch picking use the
// lower-bounding distance (Dist_PAR for adaptive methods) instead of MBR
// margin/area, avoiding the APCA-MBR overlap problem.
//
// A node's cover is not an MBR but a "convex hull": the two member
// representations with the maximum lower-bounding distance (Section 5.2);
// their distance is the node's volume. coverU/coverL upper-bound the
// representation distance from hullU / hullL to ANY descendant entry
// (triangle-chained through child hulls). They make the SafeBound node
// distance a true lower bound whenever the representation distance is a
// metric (Dist_PAR, Dist_PAA, Dist_PLA and Dist_CHEBY all are: each is an L2
// distance between reconstructions or coefficients).
//
// It runs on the same skeleton as the R-tree (see tree): nodes and entries
// are int32 ids into arena slices, a node's cover is a hull of entry ids, and
// traversal walks dense memory with zero steady-state allocations.
type DBCH struct {
	hullTree
	filter  dist.FilterFunc
	repDist dist.RepDistFunc
	// usePAR gates the flattened Dist_PAR fast path: true only for methods
	// whose representation distance IS Dist_PAR (SAPLA, APLA, APCA). PLA
	// representations are linear too, but their measure is Dist_PLA with
	// stricter compatibility rules, so they must take the generic path.
	usePAR bool
	// SafeBound switches the node distance from the paper's Section 5.3
	// rule (tight but able to dismiss true neighbours) to the
	// triangle-inequality-safe max(0, dᵤ − coverU, dₗ − coverL), which never
	// over-prunes when the representation distance is a metric.
	SafeBound bool

	// Reused scratch, pre-sized in NewDBCH so the insert path never grows it.
	hullScratch []int32   // internal-hull candidate entry ids
	dm          []float64 // pairwise distance matrix of the current rebuild
}

// hullTree is the skeleton over hull covers, embedded as a named struct for
// the reason mbrTree is.
type hullTree struct{ tree[hull] }

// hull is a DBCH node's cover (Section 5.2): the entry ids of its two
// representatives, their distance (the volume), and the cover radii bounding
// the distance from each representative to any entry below the node.
type hull struct {
	hullU, hullL           int32
	volume, coverU, coverL float64
}

// NewDBCH builds an empty DBCH-tree for the given method. minFill must be at
// least 1 and maxFill at least 2·minFill−1, so a split of an overfull node
// (maxFill+1 members) can give both halves their minimum fill.
func NewDBCH(method string, minFill, maxFill int) (*DBCH, error) {
	f, err := dist.Filter(method)
	if err != nil {
		return nil, err
	}
	rd, err := dist.RepDist(method)
	if err != nil {
		return nil, err
	}
	if minFill < 1 || maxFill < 2*minFill-1 {
		return nil, fmt.Errorf("index: invalid DBCH fill parameters minFill=%d, maxFill=%d (need minFill >= 1, maxFill >= 2*minFill-1)", minFill, maxFill)
	}
	slotCap := maxFill + 1
	t := &DBCH{
		filter:      f,
		repDist:     rd,
		usePAR:      method == "SAPLA" || method == "APLA" || method == "APCA",
		hullScratch: make([]int32, 0, 2*slotCap),
		dm:          make([]float64, 4*slotCap*slotCap),
	}
	t.init(t, minFill, maxFill)
	return t, nil
}

// dEnt is the representation distance between two stored entries, treating
// failures as "far". For the Dist_PAR methods it runs on the flattened forms
// — no interface assertions, no per-sub-segment Shift — which is the hot
// kernel of every hull rebuild, branch pick and split.
func (t *DBCH) dEnt(a, b int32) float64 {
	ea, eb := t.ents[a], t.ents[b]
	if t.usePAR && ea.flat != nil && eb.flat != nil {
		return dist.PARFlat(ea.flat, eb.flat)
	}
	v, err := t.repDist(ea.Rep, eb.Rep)
	if err != nil {
		return math.Inf(1)
	}
	return v
}

// dQ is the representation distance from a query to a stored entry, treating
// failures as "far". Used for node bounds, where an error means "don't
// prune", never a hard failure.
func (t *DBCH) dQ(q dist.Query, eid int32) float64 {
	e := t.ents[eid]
	if t.usePAR && q.Flat != nil && e.flat != nil {
		return dist.PARFlat(q.Flat, e.flat)
	}
	v, err := t.filter(q, e.Rep)
	if err != nil {
		return math.Inf(1)
	}
	return v
}

// filterEntry is the leaf-level filtering distance, preserving the generic
// measure's error semantics: the flat kernel answers only when it is
// applicable, and incompatibilities fall back to the typed-error path.
func (t *DBCH) filterEntry(q dist.Query, e *Entry) (float64, error) {
	if t.usePAR && q.Flat != nil && e.flat != nil {
		if d := dist.PARFlat(q.Flat, e.flat); !math.IsInf(d, 1) {
			return d, nil
		}
	}
	return t.filter(q, e.Rep)
}

// absorb maintains nd's hull after eid landed in or below it: exactly at a
// leaf (absorbLeaf), and from the children's hull representatives at an
// internal node (the only pairs Section 5.3 compares there).
func (t *DBCH) absorb(nd, eid int32) bool {
	if t.ar.isLeaf[nd] {
		return t.absorbLeaf(nd, eid)
	}
	return t.refreshInternalHull(nd)
}

// rebuild recomputes nd's hull from scratch.
func (t *DBCH) rebuild(nd int32) {
	if t.ar.isLeaf[nd] {
		t.rebuildLeafHull(nd)
	} else {
		t.rebuildInternalHull(nd)
	}
}

// absorbLeaf updates a leaf's hull exactly after pushing eid: the only new
// candidate pairs involve eid, so comparing it against every other entry
// keeps the hull the true max-distance pair, and every entry within the
// volume of both hull ends. It reports whether the hull, volume or covers
// changed.
func (t *DBCH) absorbLeaf(nd, eid int32) bool {
	if t.ar.count[nd] == 1 {
		t.rebuildLeafHull(nd)
		return true
	}
	h := &t.ar.covers[nd]
	hullChanged := false
	for _, x := range t.ar.slotsOf(nd) {
		if x == eid {
			continue
		}
		if d := t.dEnt(eid, x); d > h.volume {
			h.hullU, h.hullL, h.volume = eid, x, d
			hullChanged = true
		}
	}
	if hullChanged {
		t.leafCovers(nd)
		return true
	}
	changed := false
	if d := t.dEnt(eid, h.hullU); d > h.coverU {
		h.coverU = d
		changed = true
	}
	if d := t.dEnt(eid, h.hullL); d > h.coverL {
		h.coverL = d
		changed = true
	}
	return changed
}

// leafCovers recomputes a leaf's exact cover radii.
func (t *DBCH) leafCovers(nd int32) {
	h := &t.ar.covers[nd]
	cu, cl := 0.0, 0.0
	for _, x := range t.ar.slotsOf(nd) {
		if d := t.dEnt(x, h.hullU); d > cu {
			cu = d
		}
		if d := t.dEnt(x, h.hullL); d > cl {
			cl = d
		}
	}
	h.coverU, h.coverL = cu, cl
}

// pickBranch chooses the child whose hull needs the smallest growth to
// cover eid (ties: smaller volume) — Section 5.3's minimum distance increase.
func (t *DBCH) pickBranch(nd, eid int32) int32 {
	best := nilNode
	bestCost, bestVol := math.Inf(1), math.Inf(1)
	for _, c := range t.ar.slotsOf(nd) {
		h := &t.ar.covers[c]
		grow := math.Max(t.dEnt(eid, h.hullU), t.dEnt(eid, h.hullL)) - h.volume
		if grow < 0 {
			grow = 0
		}
		if grow < bestCost || (grow == bestCost && h.volume < bestVol) { //sapla:floateq exact tie-break on growth cost; ties fall through to the smaller hull volume
			best, bestCost, bestVol = c, grow, h.volume
		}
	}
	return best
}

// partition implements the distance-based node splitting of Section 5.3:
// the two slots with the maximum lower-bounding distance (entries at a leaf,
// child hulls at an internal node) seed the groups, and the rest join the
// nearer seed unless a group must take them to reach minFill.
func (t *DBCH) partition(nd int32) (a, b []int32) {
	leaf, ss := t.ar.isLeaf[nd], t.ar.slotsOf(nd)
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := range ss {
		for j := i + 1; j < len(ss); j++ {
			if v := t.slotDist(leaf, ss[i], ss[j]); v > worst {
				worst, s1, s2 = v, i, j
			}
		}
	}
	a = append(t.scratchA[:0], ss[s1])
	b = append(t.scratchB[:0], ss[s2])
	total := len(ss)
	for i, x := range ss {
		if i == s1 || i == s2 {
			continue
		}
		d1, d2 := t.slotDist(leaf, x, ss[s1]), t.slotDist(leaf, x, ss[s2])
		switch {
		case len(a) >= total-t.minFill: // b must take the rest
			b = append(b, x)
		case len(b) >= total-t.minFill:
			a = append(a, x)
		case d1 <= d2:
			a = append(a, x)
		default:
			b = append(b, x)
		}
	}
	return a, b
}

// slotDist is the distance between two slots of a node: between two entries
// at a leaf, and at an internal node between two subtrees — the maximum
// distance among their hull representatives (only hull pairs are compared
// for internal nodes, per Section 5.3).
func (t *DBCH) slotDist(leaf bool, a, b int32) float64 {
	if leaf {
		return t.dEnt(a, b)
	}
	ha, hb := &t.ar.covers[a], &t.ar.covers[b]
	m := t.dEnt(ha.hullU, hb.hullU)
	if v := t.dEnt(ha.hullU, hb.hullL); v > m {
		m = v
	}
	if v := t.dEnt(ha.hullL, hb.hullU); v > m {
		m = v
	}
	if v := t.dEnt(ha.hullL, hb.hullL); v > m {
		m = v
	}
	return m
}

// pairDists fills t.dm with the symmetric pairwise distance matrix of ids
// (row stride len(ids)) and returns the positions of the farthest pair. Hull
// rebuilds read the volume and every cover term back from the matrix instead
// of re-evaluating the kernel — the cover distances are always a subset of
// the pairs the farthest scan visits.
func (t *DBCH) pairDists(ids []int32) (int, int) {
	n := len(ids)
	dm := t.dm
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < n; i++ {
		dm[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			v := t.dEnt(ids[i], ids[j])
			dm[i*n+j] = v
			dm[j*n+i] = v
			if v > worst {
				worst, s1, s2 = v, i, j
			}
		}
	}
	return s1, s2
}

// rebuildLeafHull recomputes a leaf's exact max-distance pair.
func (t *DBCH) rebuildLeafHull(nd int32) {
	ss, h := t.ar.slotsOf(nd), &t.ar.covers[nd]
	if len(ss) == 1 {
		*h = hull{hullU: ss[0], hullL: ss[0]}
		return
	}
	i, j := t.pairDists(ss)
	n := len(ss)
	h.hullU, h.hullL = ss[i], ss[j]
	h.volume = t.dm[i*n+j]
	cu, cl := 0.0, 0.0
	for k := 0; k < n; k++ {
		if d := t.dm[k*n+i]; d > cu {
			cu = d
		}
		if d := t.dm[k*n+j]; d > cl {
			cl = d
		}
	}
	h.coverU, h.coverL = cu, cl
}

// rebuildInternalHull recomputes an internal node's hull from its children's
// hull representatives.
func (t *DBCH) rebuildInternalHull(nd int32) {
	ss := t.ar.slotsOf(nd)
	hs := t.hullScratch[:0]
	for _, c := range ss {
		hs = append(hs, t.ar.covers[c].hullU, t.ar.covers[c].hullL)
	}
	i, j := t.pairDists(hs)
	n := len(hs)
	h := &t.ar.covers[nd]
	h.hullU, h.hullL = hs[i], hs[j]
	h.volume = t.dm[i*n+j]
	// Triangle-chained cover radii: a descendant under child c is within
	// d(hull, c.hull) + c.cover of this hull, through either child hull end.
	// Child c's hull ends sit at matrix columns 2k and 2k+1.
	cu, cl := 0.0, 0.0
	for k, c := range ss {
		ch := &t.ar.covers[c]
		if ru := math.Min(t.dm[i*n+2*k]+ch.coverU, t.dm[i*n+2*k+1]+ch.coverL); ru > cu {
			cu = ru
		}
		if rl := math.Min(t.dm[j*n+2*k]+ch.coverU, t.dm[j*n+2*k+1]+ch.coverL); rl > cl {
			cl = rl
		}
	}
	h.coverU, h.coverL = cu, cl
}

// refreshInternalHull rebuilds nd's hull and reports whether anything moved,
// so unchanged chains stop propagating up the insert path.
func (t *DBCH) refreshInternalHull(nd int32) bool {
	old := t.ar.covers[nd]
	t.rebuildInternalHull(nd)
	h := &t.ar.covers[nd]
	if h.hullU != old.hullU || h.hullL != old.hullL {
		return true
	}
	return h.volume != old.volume || h.coverU != old.coverU || h.coverL != old.coverL //sapla:floateq exact before/after comparison: propagation stops only when the recomputed values are bit-identical
}

// nodeBound is Section 5.3's query-to-node distance: 0 when the query lies
// within the hull's volume of both ends; otherwise the smaller of the two
// hull distances (paper rule) or the triangle-safe bound (SafeBound). It
// needs no coefficient vector.
func (t *DBCH) nodeBound(q dist.Query, _ []float64, nd int32) float64 {
	h := &t.ar.covers[nd]
	du, dl := t.dQ(q, h.hullU), t.dQ(q, h.hullL)
	if du <= h.volume && dl <= h.volume {
		return 0
	}
	if t.SafeBound {
		b := math.Max(du-h.coverU, dl-h.coverL)
		if b < 0 {
			b = 0
		}
		return b
	}
	return math.Min(du, dl)
}

// bulkOrder orders ids by their representation distance to a pivot (the
// first id): STR's coordinate tiling has no analogue for distance-based
// covers, and this is the metric-space counterpart of a coordinate sort.
func (t *DBCH) bulkOrder(ids []int32) []int {
	pivot := ids[0]
	type keyed struct {
		id  int32
		key float64
	}
	sorted := make([]keyed, len(ids))
	for i, id := range ids {
		sorted[i] = keyed{id: id, key: t.dEnt(id, pivot)}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	for i, k := range sorted {
		ids[i] = k.id
	}
	return nil
}
