package index

// Delete removes the entry with the given ID, condensing underfull nodes
// Guttman-style and rebuilding covers on the path. Condensed subtrees release
// their nodes to the free list; their entries keep their entry-arena ids and
// are reinserted in the order they were collected. It reports whether the
// entry was found.
func (t *tree[C]) Delete(id int) bool {
	if t.root == nilNode {
		return false
	}
	t.orphans = t.orphans[:0]
	if found, _ := t.deleteRec(t.root, id); !found {
		return false
	}
	t.size--
	// Shrink the root: an internal root with one child collapses; an empty
	// leaf root resets the tree.
	for !t.ar.isLeaf[t.root] && t.ar.count[t.root] == 1 {
		old := t.root
		t.root = t.ar.slotsOf(old)[0]
		t.ar.freeNode(old)
	}
	if t.ar.isLeaf[t.root] && t.ar.count[t.root] == 0 {
		t.ar.freeNode(t.root)
		t.root = nilNode
	}
	for _, eid := range t.orphans {
		t.insertEntry(eid) // size is unchanged: the ids stay registered
	}
	return true
}

// deleteRec removes id under nd, rebuilding covers bottom-up. It returns
// whether the id was found and whether nd now underflows. Each scan ranges
// over the slot block itself: nothing below it repacks the arena, and the
// first hit mutates the block and returns.
func (t *tree[C]) deleteRec(nd int32, id int) (found, underflow bool) {
	if t.ar.isLeaf[nd] {
		for i, eid := range t.ar.slotsOf(nd) {
			if t.ents[eid].ID != id {
				continue
			}
			t.ar.removeSlot(nd, i)
			t.freeEntry(eid)
			if t.ar.count[nd] > 0 {
				t.cov.rebuild(nd)
			}
			return true, int(t.ar.count[nd]) < t.minFill
		}
		return false, false
	}
	for i, ch := range t.ar.slotsOf(nd) {
		f, uf := t.deleteRec(ch, id)
		if !f {
			continue
		}
		if uf {
			t.ar.removeSlot(nd, i)
			t.collectSubtree(ch)
		}
		if t.ar.count[nd] > 0 {
			t.cov.rebuild(nd)
		}
		return true, int(t.ar.count[nd]) < t.minFill
	}
	return false, false
}

// collectSubtree gathers every entry id in a subtree into t.orphans and
// frees the subtree's nodes. Nothing here repacks the arena, so ranging over
// the slot block is safe.
func (t *tree[C]) collectSubtree(nd int32) {
	if t.ar.isLeaf[nd] {
		t.orphans = append(t.orphans, t.ar.slotsOf(nd)...)
		t.ar.freeNode(nd)
		return
	}
	for _, c := range t.ar.slotsOf(nd) {
		t.collectSubtree(c)
	}
	t.ar.freeNode(nd)
}
