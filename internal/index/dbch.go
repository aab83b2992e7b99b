package index

import (
	"fmt"
	"math"

	"sapla/internal/dist"
	"sapla/internal/ts"
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
// Storage is arena-backed structure-of-arrays (see nodeArena): nodes and
// entries are int32 ids into parallel slices, hulls are entry ids, and
// traversal walks dense memory with zero steady-state allocations.
type DBCH struct {
	method           string
	minFill, maxFill int
	root             int32
	size             int
	filter           dist.FilterFunc
	repDist          dist.RepDistFunc
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

	ar      nodeArena
	ents    []*Entry // entry arena: id → entry, nil when freed
	entFree []int32  // reusable entry ids

	// Reused scratch, pre-sized in NewDBCH so the insert path never grows it.
	orphans     []int32   // entry ids condensed out during Delete
	scratchA    []int32   // split group 1
	scratchB    []int32   // split group 2
	hullScratch []int32   // internal-hull candidate entry ids
	dm          []float64 // pairwise distance matrix of the current rebuild
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
	usePAR := method == "SAPLA" || method == "APLA" || method == "APCA"
	slotCap := maxFill + 1
	return &DBCH{
		method:  method,
		minFill: minFill, maxFill: maxFill,
		root:        nilNode,
		filter:      f,
		repDist:     rd,
		usePAR:      usePAR,
		ar:          nodeArena{slotCap: int32(slotCap)},
		scratchA:    make([]int32, 0, slotCap),
		scratchB:    make([]int32, 0, slotCap),
		hullScratch: make([]int32, 0, 2*slotCap),
		dm:          make([]float64, 4*slotCap*slotCap),
	}, nil
}

// Len implements Index.
func (t *DBCH) Len() int { return t.size }

// addEntry registers e in the entry arena and returns its id.
func (t *DBCH) addEntry(e *Entry) int32 {
	if n := len(t.entFree); n > 0 {
		id := t.entFree[n-1]
		t.entFree = t.entFree[:n-1]
		t.ents[id] = e
		return id
	}
	t.ents = append(t.ents, e)
	return int32(len(t.ents) - 1)
}

// freeEntry returns an entry id to the free list.
func (t *DBCH) freeEntry(id int32) {
	t.ents[id] = nil
	t.entFree = append(t.entFree, id)
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

// Insert implements Index.
func (t *DBCH) Insert(e *Entry) error {
	t.insertEntry(t.addEntry(e))
	t.size++
	return nil
}

// insertEntry places a registered entry id into the tree.
func (t *DBCH) insertEntry(eid int32) {
	if t.root == nilNode {
		nd := t.ar.alloc(true)
		t.ar.push(nd, eid)
		t.ar.hullU[nd], t.ar.hullL[nd] = eid, eid
		t.root = nd
		return
	}
	if sib, _ := t.insertRec(t.root, eid); sib != nilNode {
		old := t.root
		root := t.ar.alloc(false)
		t.ar.push(root, old)
		t.ar.push(root, sib)
		t.rebuildInternalHull(root)
		t.root = root
	}
}

// insertRec descends by minimum distance increase (Section 5.3's branch
// picking), maintaining hulls on the way back up; a non-nil sib is a new
// sibling node. The hull maintenance keeps the invariant exact at leaves —
// the hull is the true max-distance entry pair, so every entry lies within
// the volume of both hull ends — and recomputes internal hulls from the
// children's hull representatives (the only pairs Section 5.3 compares for
// internal nodes).
//
// changed reports whether nd's hull ids, volume or covers moved. When a
// child absorbs an entry without any of those changing, every ancestor's
// hull inputs are unchanged too, so the whole rebuild chain above it is
// skipped — for random workloads this prunes most of the per-insert
// farthest-pair scans that make DBCH ingest cost more than the R-tree's.
func (t *DBCH) insertRec(nd int32, eid int32) (sib int32, changed bool) {
	if t.ar.isLeaf[nd] {
		t.ar.push(nd, eid)
		if int(t.ar.count[nd]) > t.maxFill {
			return t.splitLeaf(nd), true
		}
		return nilNode, t.absorbLeaf(nd, eid)
	}
	sib, changed = t.insertRec(t.pickBranch(nd, eid), eid)
	if sib != nilNode {
		t.ar.push(nd, sib)
		if int(t.ar.count[nd]) > t.maxFill {
			return t.splitInternal(nd), true
		}
		t.rebuildInternalHull(nd)
		return nilNode, true
	}
	if !changed {
		return nilNode, false
	}
	return nilNode, t.refreshInternalHull(nd)
}

// absorbLeaf updates a leaf's hull exactly after pushing eid: the only new
// candidate pairs involve eid, so comparing it against every other entry
// keeps the hull the true max-distance pair. It reports whether the hull,
// volume or covers changed.
func (t *DBCH) absorbLeaf(nd, eid int32) bool {
	ss := t.ar.slotsOf(nd)
	if len(ss) == 1 {
		t.ar.hullU[nd], t.ar.hullL[nd] = eid, eid
		t.ar.volume[nd], t.ar.coverU[nd], t.ar.coverL[nd] = 0, 0, 0
		return true
	}
	hullChanged := false
	for _, x := range ss {
		if x == eid {
			continue
		}
		if d := t.dEnt(eid, x); d > t.ar.volume[nd] {
			t.ar.hullU[nd], t.ar.hullL[nd], t.ar.volume[nd] = eid, x, d
			hullChanged = true
		}
	}
	if hullChanged {
		t.leafCovers(nd)
		return true
	}
	changed := false
	if d := t.dEnt(eid, t.ar.hullU[nd]); d > t.ar.coverU[nd] {
		t.ar.coverU[nd] = d
		changed = true
	}
	if d := t.dEnt(eid, t.ar.hullL[nd]); d > t.ar.coverL[nd] {
		t.ar.coverL[nd] = d
		changed = true
	}
	return changed
}

// leafCovers recomputes a leaf's exact cover radii.
func (t *DBCH) leafCovers(nd int32) {
	cu, cl := 0.0, 0.0
	hu, hl := t.ar.hullU[nd], t.ar.hullL[nd]
	for _, x := range t.ar.slotsOf(nd) {
		if d := t.dEnt(x, hu); d > cu {
			cu = d
		}
		if d := t.dEnt(x, hl); d > cl {
			cl = d
		}
	}
	t.ar.coverU[nd], t.ar.coverL[nd] = cu, cl
}

// pickBranch chooses the child whose hull needs the smallest growth to
// cover eid (ties: smaller volume).
func (t *DBCH) pickBranch(nd, eid int32) int32 {
	best := nilNode
	bestCost, bestVol := math.Inf(1), math.Inf(1)
	for _, c := range t.ar.slotsOf(nd) {
		du, dl := t.dEnt(eid, t.ar.hullU[c]), t.dEnt(eid, t.ar.hullL[c])
		grow := math.Max(du, dl) - t.ar.volume[c]
		if grow < 0 {
			grow = 0
		}
		if grow < bestCost || (grow == bestCost && t.ar.volume[c] < bestVol) { //sapla:floateq exact tie-break on growth cost; ties fall through to the smaller hull volume
			best, bestCost, bestVol = c, grow, t.ar.volume[c]
		}
	}
	return best
}

// splitLeaf implements the distance-based node splitting of Section 5.3:
// the two entries with the maximum lower-bounding distance seed the groups,
// the rest join the nearer seed. The groups are distributed into pre-sized
// scratch first — allocating the sibling may move the arena's slot array, so
// no slot alias may be held across it.
func (t *DBCH) splitLeaf(nd int32) int32 {
	ss := t.ar.slotsOf(nd)
	s1, s2 := t.farthestEntryPair(ss)
	a, b := t.scratchA[:0], t.scratchB[:0]
	a = append(a, ss[s1])
	b = append(b, ss[s2])
	total := len(ss)
	for i, e := range ss {
		if i == s1 || i == s2 {
			continue
		}
		d1, d2 := t.dEnt(e, ss[s1]), t.dEnt(e, ss[s2])
		switch {
		case len(a) >= total-t.minFill: // b must take the rest
			b = append(b, e)
		case len(b) >= total-t.minFill:
			a = append(a, e)
		case d1 <= d2:
			a = append(a, e)
		default:
			b = append(b, e)
		}
	}
	sib := t.ar.alloc(true) // may move the slot array; ss is dead from here
	t.ar.setSlots(nd, a)
	t.ar.setSlots(sib, b)
	t.rebuildLeafHull(nd)
	t.rebuildLeafHull(sib)
	return sib
}

// splitInternal splits children by the distance between their hulls.
func (t *DBCH) splitInternal(nd int32) int32 {
	ss := t.ar.slotsOf(nd)
	s1, s2 := t.farthestChildPair(ss)
	a, b := t.scratchA[:0], t.scratchB[:0]
	a = append(a, ss[s1])
	b = append(b, ss[s2])
	total := len(ss)
	for i, c := range ss {
		if i == s1 || i == s2 {
			continue
		}
		d1, d2 := t.childDist(c, ss[s1]), t.childDist(c, ss[s2])
		switch {
		case len(a) >= total-t.minFill:
			b = append(b, c)
		case len(b) >= total-t.minFill:
			a = append(a, c)
		case d1 <= d2:
			a = append(a, c)
		default:
			b = append(b, c)
		}
	}
	sib := t.ar.alloc(false) // may move the slot array; ss is dead from here
	t.ar.setSlots(nd, a)
	t.ar.setSlots(sib, b)
	t.rebuildInternalHull(nd)
	t.rebuildInternalHull(sib)
	return sib
}

// childDist is the distance between two subtrees: the maximum distance
// among their hull representatives (only hull pairs are compared for
// internal nodes, per Section 5.3).
func (t *DBCH) childDist(a, b int32) float64 {
	au, al := t.ar.hullU[a], t.ar.hullL[a]
	bu, bl := t.ar.hullU[b], t.ar.hullL[b]
	m := t.dEnt(au, bu)
	if v := t.dEnt(au, bl); v > m {
		m = v
	}
	if v := t.dEnt(al, bu); v > m {
		m = v
	}
	if v := t.dEnt(al, bl); v > m {
		m = v
	}
	return m
}

// farthestEntryPair returns the positions of the entry-id pair maximising
// the representation distance.
func (t *DBCH) farthestEntryPair(ids []int32) (int, int) {
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if v := t.dEnt(ids[i], ids[j]); v > worst {
				worst, s1, s2 = v, i, j
			}
		}
	}
	return s1, s2
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

// farthestChildPair returns the positions of the child-node pair maximising
// the hull-to-hull distance.
func (t *DBCH) farthestChildPair(ids []int32) (int, int) {
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if v := t.childDist(ids[i], ids[j]); v > worst {
				worst, s1, s2 = v, i, j
			}
		}
	}
	return s1, s2
}

// rebuildLeafHull recomputes a leaf's exact max-distance pair.
func (t *DBCH) rebuildLeafHull(nd int32) {
	ss := t.ar.slotsOf(nd)
	if len(ss) == 1 {
		t.ar.hullU[nd], t.ar.hullL[nd] = ss[0], ss[0]
		t.ar.volume[nd], t.ar.coverU[nd], t.ar.coverL[nd] = 0, 0, 0
		return
	}
	i, j := t.pairDists(ss)
	n := len(ss)
	t.ar.hullU[nd], t.ar.hullL[nd] = ss[i], ss[j]
	t.ar.volume[nd] = t.dm[i*n+j]
	cu, cl := 0.0, 0.0
	for k := 0; k < n; k++ {
		if d := t.dm[k*n+i]; d > cu {
			cu = d
		}
		if d := t.dm[k*n+j]; d > cl {
			cl = d
		}
	}
	t.ar.coverU[nd], t.ar.coverL[nd] = cu, cl
}

// rebuildInternalHull recomputes an internal node's hull from its children's
// hull representatives.
func (t *DBCH) rebuildInternalHull(nd int32) {
	ss := t.ar.slotsOf(nd)
	h := t.hullScratch[:0]
	for _, c := range ss {
		h = append(h, t.ar.hullU[c], t.ar.hullL[c])
	}
	i, j := t.pairDists(h)
	n := len(h)
	t.ar.hullU[nd], t.ar.hullL[nd] = h[i], h[j]
	t.ar.volume[nd] = t.dm[i*n+j]
	// Triangle-chained cover radii: a descendant under child c is within
	// d(hull, c.hull) + c.cover of this hull, through either child hull end.
	// Child c's hull ends sit at matrix columns 2k and 2k+1.
	cu, cl := 0.0, 0.0
	for k, c := range ss {
		ru := math.Min(t.dm[i*n+2*k]+t.ar.coverU[c], t.dm[i*n+2*k+1]+t.ar.coverL[c])
		rl := math.Min(t.dm[j*n+2*k]+t.ar.coverU[c], t.dm[j*n+2*k+1]+t.ar.coverL[c])
		if ru > cu {
			cu = ru
		}
		if rl > cl {
			cl = rl
		}
	}
	t.ar.coverU[nd], t.ar.coverL[nd] = cu, cl
}

// refreshInternalHull rebuilds nd's hull and reports whether anything moved,
// so unchanged chains stop propagating up the insert path.
func (t *DBCH) refreshInternalHull(nd int32) bool {
	oldU, oldL := t.ar.hullU[nd], t.ar.hullL[nd]
	oldVol := t.ar.volume[nd]
	oldCU, oldCL := t.ar.coverU[nd], t.ar.coverL[nd]
	t.rebuildInternalHull(nd)
	if t.ar.hullU[nd] != oldU || t.ar.hullL[nd] != oldL {
		return true
	}
	return t.ar.volume[nd] != oldVol || t.ar.coverU[nd] != oldCU || t.ar.coverL[nd] != oldCL //sapla:floateq exact before/after comparison: propagation stops only when the recomputed values are bit-identical
}

// boundID is Section 5.3's query-to-node distance: 0 when the query lies
// within the hull's volume of both ends; otherwise the smaller of the two
// hull distances (paper rule) or the triangle-safe bound (SafeBound).
func (t *DBCH) boundID(q dist.Query, nd int32) float64 {
	du := t.dQ(q, t.ar.hullU[nd])
	dl := t.dQ(q, t.ar.hullL[nd])
	if du <= t.ar.volume[nd] && dl <= t.ar.volume[nd] {
		return 0
	}
	if t.SafeBound {
		b := math.Max(du-t.ar.coverU[nd], dl-t.ar.coverL[nd])
		if b < 0 {
			b = 0
		}
		return b
	}
	return math.Min(du, dl)
}

// KNN implements Index.
func (t *DBCH) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(t, q, k)
}

// KNNWith implements WorkspaceSearcher: the GEMINI branch-and-bound k-NN
// specialised to the arena layout — the node frontier holds int32 ids, so
// traversal never boxes a node into an interface, and child scans walk the
// dense slot block.
func (t *DBCH) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	var stats SearchStats
	if t.root == nilNode || k <= 0 {
		return nil, stats, nil
	}
	nodes := ws.ids
	nodes.Reset()
	nodes.Push(0, t.root)
	best := ws.best // k current best, worst on top
	best.Reset()
	kth := math.Inf(1)

	for nodes.Len() > 0 {
		prio, nd := nodes.Pop()
		if prio > kth {
			break // every remaining node is at least this far
		}
		stats.NodesVisited++
		if !t.ar.isLeaf[nd] {
			for _, c := range t.ar.slotsOf(nd) {
				if b := t.boundID(q, c); b <= kth {
					nodes.Push(b, c)
				}
			}
			continue
		}
		for _, eid := range t.ar.slotsOf(nd) {
			e := t.ents[eid]
			stats.Filtered++
			fd, err := t.filterEntry(q, e)
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

// Stats implements the tree-shape reporting of Figures 15–16.
func (t *DBCH) Stats() TreeStats {
	var s TreeStats
	s.Entries = t.size
	if t.root == nilNode {
		return s
	}
	type frame struct {
		nd    int32
		depth int
	}
	stack := []frame{{t.root, 1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.depth > s.Height {
			s.Height = f.depth
		}
		if t.ar.isLeaf[f.nd] {
			s.LeafNodes++
			continue
		}
		s.InternalNodes++
		for _, c := range t.ar.slotsOf(f.nd) {
			stack = append(stack, frame{c, f.depth + 1})
		}
	}
	return s
}
