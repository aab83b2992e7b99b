package index

// Delete removes the entry with the given ID from the R-tree, condensing
// underfull nodes Guttman-style: orphaned entries are reinserted. It reports
// whether the entry was found.
func (t *RTree) Delete(id int) bool {
	if t.root == nil {
		return false
	}
	var orphans []*Entry
	found, _ := t.deleteRec(t.root, id, &orphans)
	if !found {
		return false
	}
	t.size--
	// Shrink the root: an internal root with one child collapses; an empty
	// leaf root resets the tree.
	for !t.root.isLeaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if t.root.isLeaf && len(t.root.entries) == 0 {
		t.root = nil
		t.dim = 0
	}
	for _, e := range orphans {
		t.size-- // Insert below re-increments
		if err := t.Insert(e); err != nil {
			// Cannot happen: orphans came from this tree, so dimensions match.
			panic(err)
		}
	}
	return true
}

// deleteRec removes id under nd, collecting entries of condensed subtrees.
// It returns whether the id was found and whether nd now underflows.
func (t *RTree) deleteRec(nd *rnode, id int, orphans *[]*Entry) (found, underflow bool) {
	if nd.isLeaf {
		for i, e := range nd.entries {
			if e.ID == id {
				nd.entries = append(nd.entries[:i], nd.entries[i+1:]...)
				if len(nd.entries) > 0 {
					nd.rect = rectOfEntries(nd.entries)
				}
				return true, len(nd.entries) < t.minFill
			}
		}
		return false, false
	}
	for i, ch := range nd.children {
		f, uf := t.deleteRec(ch, id, orphans)
		if !f {
			continue
		}
		if uf {
			nd.children = append(nd.children[:i], nd.children[i+1:]...)
			collectEntries(ch, orphans)
		}
		if len(nd.children) > 0 {
			nd.rect = rectOfNodes(nd.children)
		}
		return true, len(nd.children) < t.minFill
	}
	return false, false
}

// collectEntries gathers every entry in a subtree.
func collectEntries(nd *rnode, out *[]*Entry) {
	if nd.isLeaf {
		*out = append(*out, nd.entries...)
		return
	}
	for _, c := range nd.children {
		collectEntries(c, out)
	}
}

// Delete removes the entry with the given ID from the DBCH-tree, condensing
// underfull nodes and rebuilding hulls on the path. Condensed subtrees
// release their nodes to the free list; their entries keep their entry-arena
// ids and are reinserted. It reports whether the entry was found.
func (t *DBCH) Delete(id int) bool {
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

// deleteRec removes id under nd, rebuilding hulls bottom-up. It returns
// whether the id was found and whether nd now underflows. Each scan ranges
// over the slot block itself: nothing below it repacks the arena, and the
// first hit mutates the block and returns.
func (t *DBCH) deleteRec(nd int32, id int) (found, underflow bool) {
	if t.ar.isLeaf[nd] {
		for i, eid := range t.ar.slotsOf(nd) {
			if t.ents[eid].ID != id {
				continue
			}
			t.ar.removeSlot(nd, i)
			t.freeEntry(eid)
			if t.ar.count[nd] > 0 {
				t.rebuildLeafHull(nd)
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
			t.rebuildInternalHull(nd)
		}
		return true, int(t.ar.count[nd]) < t.minFill
	}
	return false, false
}

// collectSubtree gathers every entry id in a subtree into t.orphans and
// frees the subtree's nodes. Nothing here repacks the arena, so ranging over
// the slot block is safe.
func (t *DBCH) collectSubtree(nd int32) {
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
