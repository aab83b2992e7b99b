package index

// InsertBatch adds a batch of entries in one call. On an empty tree it takes
// the bulk-load path — no splits, no branch picking. On a non-empty tree it
// pre-grows the arenas to their final size so the per-entry inserts run
// against pre-reserved storage, then inserts incrementally.
func (t *DBCH) InsertBatch(entries []*Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if t.root == nilNode && t.size == 0 {
		return t.BulkLoad(entries)
	}
	t.reserve(len(entries))
	for _, e := range entries {
		t.insertEntry(t.addEntry(e))
	}
	t.size += len(entries)
	return nil
}

// reserve pre-grows the entry and node arenas for n more entries.
func (t *DBCH) reserve(n int) {
	need := len(t.ents) + n
	if cap(t.ents) < need {
		grown := make([]*Entry, len(t.ents), need)
		copy(grown, t.ents)
		t.ents = grown
	}
	// Worst case every leaf sits at minFill, plus one parent level per
	// maxFill nodes chained to the root.
	leaves := n/t.minFill + 1
	t.ar.reserve(leaves + leaves/t.maxFill + 2)
}

// Fragmentation reports the fraction of arena slots (nodes and entries) that
// sit on free lists — dead weight kept alive by the arenas. Freshly built
// and bulk-loaded trees report 0; interleaved deletes raise it.
func (t *DBCH) Fragmentation() float64 {
	total := t.ar.len() + len(t.ents)
	if total == 0 {
		return 0
	}
	return float64(len(t.ar.free)+len(t.entFree)) / float64(total)
}

// Compact rebuilds the tree so the arenas hold no free-listed slots: live
// entries are collected in ascending entry-id order, both arenas are reset,
// and the tree is bulk-loaded back. The result is bit-identical to a fresh
// tree bulk-loaded with the same entries in the same order — compaction
// changes memory layout, never answers. Backing arrays are retained, so a
// compaction cycle costs no arena reallocations.
func (t *DBCH) Compact() {
	live := make([]*Entry, 0, t.size)
	for _, e := range t.ents {
		if e != nil {
			live = append(live, e)
		}
	}
	t.ar.reset()
	t.ents = t.ents[:0]
	t.entFree = t.entFree[:0]
	t.root = nilNode
	t.size = len(live)
	if len(live) == 0 {
		return
	}
	ids := make([]int32, len(live))
	for i, e := range live {
		t.ents = append(t.ents, e)
		ids[i] = int32(i)
	}
	t.bulkLoad(ids)
}
