package index

import "sapla/internal/dist"

// cover is what each paper tree keeps of its own: the per-node cover (an MBR
// for the R-tree, a distance hull for the DBCH-tree, stored in the node
// arena's covers) and the operations that read or maintain it. Everything
// else — the insert descent and splits, Delete, bulk packing, Stats, k-NN and
// range search — is the skeleton's (tree), so both trees run the same code on
// the same arenas and differ only in their covers.
type cover interface {
	// absorb updates node nd's cover after entry eid was pushed into leaf nd,
	// or was inserted below internal nd and changed the child's cover. It
	// reports whether nd's cover changed: an unchanged cover ends the walk up.
	absorb(nd, eid int32) bool
	// rebuild recomputes node nd's cover from its slots.
	rebuild(nd int32)
	// pickBranch returns the child of internal node nd that takes entry eid.
	pickBranch(nd, eid int32) int32
	// partition splits overfull node nd's slots into two groups (the first
	// stays in nd), returned in scratch that aliases no slot block.
	partition(nd int32) (a, b []int32)
	// nodeBound lower-bounds the distance the tree filters on from query q,
	// whose coefficient vector is qv, to any entry below node nd.
	nodeBound(q dist.Query, qv []float64, nd int32) float64
	// filterEntry is the leaf-level filter distance from q to e.
	filterEntry(q dist.Query, e *Entry) (float64, error)
	// bulkOrder orders entry ids in place for bulk packing and returns the
	// ends of the runs no leaf may straddle (nil: one run).
	bulkOrder(ids []int32) []int
}

// tree is the skeleton both paper trees run on: the node arena (with one
// cover C per node), the entry arena, and every tree operation that does not
// read a cover. cov is the tree that embeds the skeleton.
type tree[C any] struct {
	cov              cover
	minFill, maxFill int
	root             int32
	size             int

	ar      nodeArena[C]
	ents    []*Entry // entry arena: id → entry, nil when freed
	entFree []int32  // reusable entry ids

	// Reused scratch, pre-sized by init so the insert path never grows it.
	orphans            []int32 // entry ids condensed out during Delete
	scratchA, scratchB []int32 // the two groups of a split
}

// init sets up an empty skeleton driven by cov.
func (t *tree[C]) init(cov cover, minFill, maxFill int) {
	t.cov, t.minFill, t.maxFill, t.root = cov, minFill, maxFill, nilNode
	t.ar.slotCap = int32(maxFill + 1)
	t.scratchA = make([]int32, 0, maxFill+1)
	t.scratchB = make([]int32, 0, maxFill+1)
}

// Len implements Index.
func (t *tree[C]) Len() int { return t.size }

// addEntry registers e in the entry arena and returns its id.
func (t *tree[C]) addEntry(e *Entry) int32 {
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
func (t *tree[C]) freeEntry(id int32) {
	t.ents[id] = nil
	t.entFree = append(t.entFree, id)
}

// Insert implements Index.
func (t *tree[C]) Insert(e *Entry) error {
	t.insertEntry(t.addEntry(e))
	t.size++
	return nil
}

// insertEntry places a registered entry id into the tree, growing a new root
// over the old one and its sibling when the old root splits.
func (t *tree[C]) insertEntry(eid int32) {
	if t.root == nilNode {
		t.root = t.ar.alloc(true)
		t.ar.push(t.root, eid)
		t.cov.rebuild(t.root)
		return
	}
	if sib, _ := t.insertRec(t.root, eid); sib != nilNode {
		old := t.root
		t.root = t.ar.alloc(false)
		t.ar.push(t.root, old)
		t.ar.push(t.root, sib)
		t.cov.rebuild(t.root)
	}
}

// insertRec descends by the cover's branch pick and maintains covers on the
// way back up; a sib other than nilNode is a new sibling for the caller to
// adopt. changed reports whether nd's cover moved. When a node absorbs an
// entry without its cover changing, no ancestor's cover can change either, so
// the rest of the walk up is skipped — for the DBCH-tree on random workloads
// this prunes most of the per-insert farthest-pair scans.
func (t *tree[C]) insertRec(nd, eid int32) (sib int32, changed bool) {
	if t.ar.isLeaf[nd] {
		t.ar.push(nd, eid)
		if int(t.ar.count[nd]) > t.maxFill {
			return t.split(nd), true
		}
		return nilNode, t.cov.absorb(nd, eid)
	}
	if sib, changed = t.insertRec(t.cov.pickBranch(nd, eid), eid); sib != nilNode {
		t.ar.push(nd, sib)
		if int(t.ar.count[nd]) > t.maxFill {
			return t.split(nd), true
		}
		t.cov.rebuild(nd)
		return nilNode, true
	}
	if !changed {
		return nilNode, false
	}
	return nilNode, t.cov.absorb(nd, eid)
}

// split moves the cover's second group of overfull node nd into a new
// sibling and rebuilds both covers. The groups live in scratch, not in the
// slot block: allocating the sibling may move the arena's slot array.
func (t *tree[C]) split(nd int32) int32 {
	a, b := t.cov.partition(nd)
	sib := t.ar.alloc(t.ar.isLeaf[nd])
	t.ar.setSlots(nd, a)
	t.ar.setSlots(sib, b)
	t.cov.rebuild(nd)
	t.cov.rebuild(sib)
	return sib
}

// Stats implements the tree-shape reporting of Figures 15–16.
func (t *tree[C]) Stats() TreeStats {
	s := TreeStats{Entries: t.size}
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
		s.Height = max(s.Height, f.depth)
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
