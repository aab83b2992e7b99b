package index

import (
	"math"
	"sort"

	"sapla/internal/dist"
)

// RTree is a Guttman R-tree (quadratic split) over the representation
// coefficient vectors — the APCA-style MBR baseline of the paper's Section 6.
// It runs on the same skeleton as the DBCH-tree (see tree); its node cover is
// the MBR of the coefficient vectors below the node.
type RTree struct {
	mbrTree
	dim      int
	filter   dist.FilterFunc
	nodeDist nodeDistFunc

	// Quadratic-split scratch: the slots not yet assigned, and the two
	// groups' running MBRs.
	rest   []int32
	r1, r2 Rect
}

// mbrTree is the skeleton over MBR covers. Embedding it as a named struct,
// not as tree[Rect] itself, keeps the skeleton out of RTree's documented
// fields while its methods stay RTree's.
type mbrTree struct{ tree[Rect] }

// NewRTree builds an empty R-tree for the given method over series of length
// n reduced with coefficient budget m. minFill/maxFill follow the paper's
// Section 6 settings (2 and 5).
func NewRTree(method string, n, m, minFill, maxFill int) (*RTree, error) {
	f, err := dist.Filter(method)
	if err != nil {
		return nil, err
	}
	nd, err := nodeDistFor(method, n, m)
	if err != nil {
		return nil, err
	}
	if minFill < 1 || maxFill < 2*minFill-1 {
		minFill, maxFill = 2, 5
	}
	t := &RTree{filter: f, nodeDist: nd, rest: make([]int32, 0, maxFill+1)}
	t.init(t, minFill, maxFill)
	return t, nil
}

// Insert implements Index. The first entry of an empty tree sets the
// dimensionality every later entry must match.
func (t *RTree) Insert(e *Entry) error {
	if t.root == nilNode {
		t.dim = len(e.Vec())
	}
	if len(e.Vec()) != t.dim {
		return errDim(t.dim, len(e.Vec()))
	}
	return t.mbrTree.Insert(e)
}

// BulkLoad packs entries into the R-tree bottom-up in two-level
// Sort-Tile-Recursive order: sorted along the highest-variance coefficient
// dimension, tiled into slabs, each slab sorted along the second-highest-
// variance dimension and packed into full leaves; upper levels pack
// consecutive nodes. Compared with one-by-one insertion it builds faster and
// packs tighter (an ingest-time ablation for Figure 14a). The entries must
// share one dimensionality.
func (t *RTree) BulkLoad(entries []*Entry) error {
	if t.root == nilNode && len(entries) > 0 {
		t.dim = len(entries[0].Vec())
		for _, e := range entries {
			if len(e.Vec()) != t.dim {
				return errDim(t.dim, len(e.Vec()))
			}
		}
	}
	return t.mbrTree.BulkLoad(entries)
}

// rectOf returns the MBR of slot s of a node: the child's cover, or in a
// leaf the degenerate rectangle of the entry's coefficient vector, which
// aliases the entry and must only be read.
func (t *RTree) rectOf(leaf bool, s int32) Rect {
	if leaf {
		v := t.ents[s].vec
		return Rect{Lo: v, Hi: v}
	}
	return t.ar.covers[s]
}

// absorb extends nd's MBR over the entry's vector.
func (t *RTree) absorb(nd, eid int32) bool {
	return t.ar.covers[nd].extend(t.rectOf(true, eid))
}

// rebuild sets nd's MBR to the union of its slots' MBRs.
func (t *RTree) rebuild(nd int32) {
	leaf, ss, r := t.ar.isLeaf[nd], t.ar.slotsOf(nd), &t.ar.covers[nd]
	r.set(t.rectOf(leaf, ss[0]))
	for _, s := range ss[1:] {
		r.extend(t.rectOf(leaf, s))
	}
}

// pickBranch picks the child needing the least margin enlargement (ties:
// smallest margin), Guttman's ChooseLeaf step.
func (t *RTree) pickBranch(nd, eid int32) int32 {
	p := t.rectOf(true, eid)
	best := nilNode
	bestEnl, bestMargin := math.Inf(1), math.Inf(1)
	for _, c := range t.ar.slotsOf(nd) {
		r := t.ar.covers[c]
		enl, mg := r.enlargement(p), r.margin()
		if enl < bestEnl || (enl == bestEnl && mg < bestMargin) { //sapla:floateq exact tie-break on enlargement; ties fall through to the smaller margin
			best, bestEnl, bestMargin = c, enl, mg
		}
	}
	return best
}

// partition is Guttman's quadratic split, using margins instead of areas
// (see Rect): the pair whose union wastes the most margin seeds the groups,
// then the slot with the strongest preference joins the group it enlarges
// less, until one group must take the rest to reach minFill.
func (t *RTree) partition(nd int32) (g1, g2 []int32) {
	leaf, ss := t.ar.isLeaf[nd], t.ar.slotsOf(nd)
	s1, s2, worst := 0, 1, math.Inf(-1)
	for i := range ss {
		for j := i + 1; j < len(ss); j++ {
			ri, rj := t.rectOf(leaf, ss[i]), t.rectOf(leaf, ss[j])
			if waste := ri.unionMargin(rj) - ri.margin() - rj.margin(); waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	t.r1.set(t.rectOf(leaf, ss[s1]))
	t.r2.set(t.rectOf(leaf, ss[s2]))
	g1 = append(t.scratchA[:0], ss[s1])
	g2 = append(t.scratchB[:0], ss[s2])
	rest := t.rest[:0]
	for i, s := range ss {
		if i != s1 && i != s2 {
			rest = append(rest, s)
		}
	}
	for len(rest) > 0 {
		if len(g1)+len(rest) == t.minFill {
			return append(g1, rest...), g2
		}
		if len(g2)+len(rest) == t.minFill {
			return g1, append(g2, rest...)
		}
		bestI, bestDiff := 0, math.Inf(-1)
		var bestE1, bestE2 float64
		for i, s := range rest {
			r := t.rectOf(leaf, s)
			e1, e2 := t.r1.enlargement(r), t.r2.enlargement(r)
			if d := math.Abs(e1 - e2); d > bestDiff {
				bestDiff, bestI, bestE1, bestE2 = d, i, e1, e2
			}
		}
		s := rest[bestI]
		rest = append(rest[:bestI], rest[bestI+1:]...)
		if bestE1 < bestE2 || (bestE1 == bestE2 && len(g1) <= len(g2)) { //sapla:floateq exact tie-break on enlargement; ties fall through to the smaller group
			g1 = append(g1, s)
			t.r1.extend(t.rectOf(leaf, s))
		} else {
			g2 = append(g2, s)
			t.r2.extend(t.rectOf(leaf, s))
		}
	}
	return g1, g2
}

// nodeBound is the method's MBR lower bound (nodeDistFor).
func (t *RTree) nodeBound(q dist.Query, qv []float64, nd int32) float64 {
	return t.nodeDist(q, qv, t.ar.covers[nd])
}

// filterEntry is the method's filter distance (dist.Filter).
func (t *RTree) filterEntry(q dist.Query, e *Entry) (float64, error) {
	return t.filter(q, e.Rep)
}

// bulkOrder is a two-level Sort-Tile-Recursive order: ids sorted along the
// highest-variance coefficient dimension and tiled into slabs, each slab
// sorted along the second-highest-variance dimension. Each slab is a run.
func (t *RTree) bulkOrder(ids []int32) []int {
	d1, d2 := t.topVarianceDims(ids)
	byDim := func(s []int32, d int) {
		sort.SliceStable(s, func(i, j int) bool { return t.ents[s[i]].vec[d] < t.ents[s[j]].vec[d] })
	}
	byDim(ids, d1)
	leafCount := (len(ids) + t.maxFill - 1) / t.maxFill
	slabCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	slabSize := (len(ids) + slabCount - 1) / slabCount
	var ends []int
	for lo := 0; lo < len(ids); lo += slabSize {
		hi := min(lo+slabSize, len(ids))
		byDim(ids[lo:hi], d2)
		ends = append(ends, hi)
	}
	return ends
}

// topVarianceDims returns the two coefficient dimensions with the largest
// variance across the entries.
func (t *RTree) topVarianceDims(ids []int32) (int, int) {
	variance := make([]float64, t.dim)
	n := float64(len(ids))
	for d := range variance {
		var sum, sum2 float64
		for _, id := range ids {
			v := t.ents[id].vec[d]
			sum += v
			sum2 += v * v
		}
		variance[d] = sum2/n - (sum/n)*(sum/n)
	}
	d1, d2 := 0, 0
	for d := 1; d < t.dim; d++ {
		if variance[d] > variance[d1] {
			d1 = d
		}
	}
	if t.dim > 1 {
		if d1 == 0 {
			d2 = 1
		}
		for d := 0; d < t.dim; d++ {
			if d != d1 && variance[d] > variance[d2] {
				d2 = d
			}
		}
	}
	return d1, d2
}
