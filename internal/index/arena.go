package index

// nilNode marks an absent node id (empty tree, no best branch yet).
const nilNode = int32(-1)

// nodeArena is the DBCH-tree's node storage: index-addressed parallel slices
// (structure of arrays) instead of pointer-linked structs. Node i's child or
// entry ids live in the fixed slot block slots[i*slotCap : (i+1)*slotCap] —
// slotCap is maxFill+1 so a node can hold the one-over-full state between an
// insert and its split without spilling. Hulls are stored as entry-arena ids
// (every hull representative is, transitively, some stored entry's
// representation), which keeps the arena free of interface values. Freed node
// ids go on a free list and are reused before the slices grow, so
// steady-state insert and delete allocate nothing; snapshotting the tree
// shape is copying a handful of slices.
type nodeArena struct {
	slotCap int32 // slots per node: maxFill+1

	isLeaf []bool
	count  []int32 // used slots per node
	slots  []int32 // node i at [i*slotCap, i*slotCap+count[i])

	hullU, hullL []int32 // entry ids of the hull representatives
	volume       []float64
	coverU       []float64 // max rep-distance from hullU to any descendant entry
	coverL       []float64

	free []int32 // reusable node ids
}

// alloc returns a node id, reusing the free list before growing the arena.
func (a *nodeArena) alloc(leaf bool) int32 {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		a.isLeaf[id] = leaf
		a.count[id] = 0
		a.hullU[id], a.hullL[id] = nilNode, nilNode
		a.volume[id], a.coverU[id], a.coverL[id] = 0, 0, 0
		return id
	}
	id := int32(len(a.isLeaf))
	a.isLeaf = append(a.isLeaf, leaf)
	a.count = append(a.count, 0)
	for i := int32(0); i < a.slotCap; i++ {
		a.slots = append(a.slots, 0)
	}
	a.hullU = append(a.hullU, nilNode)
	a.hullL = append(a.hullL, nilNode)
	a.volume = append(a.volume, 0)
	a.coverU = append(a.coverU, 0)
	a.coverL = append(a.coverL, 0)
	return id
}

// freeNode returns a node id to the free list. The slot block is left as-is
// and no array moves, so a slotsOf slice held across the call stays valid;
// alloc reinitialises the header fields on reuse.
func (a *nodeArena) freeNode(id int32) {
	a.count[id] = 0
	a.free = append(a.free, id)
}

// slotsOf returns node id's live slots. The slice aliases the arena: any
// alloc, reserve, reset or Compact may grow (and move) the backing array, so
// callers must not hold it across such a call, return it, or store it in a
// struct field. TestArenaFreeListReuse holds the tree to this: after every
// alloc/freeNode/reserve/reset cycle it checks the reachable entries, the hull
// invariant and k-NN answers against a model of what the tree stores.
func (a *nodeArena) slotsOf(id int32) []int32 {
	base := id * a.slotCap
	return a.slots[base : base+a.count[id] : base+a.slotCap]
}

// push appends v to node id's slots. The caller guarantees the node holds at
// most maxFill = slotCap−1 slots, so the one-over-full pre-split state fits.
func (a *nodeArena) push(id int32, v int32) {
	a.slots[id*a.slotCap+a.count[id]] = v
	a.count[id]++
}

// setSlots replaces node id's slots with vs (len(vs) ≤ slotCap).
func (a *nodeArena) setSlots(id int32, vs []int32) {
	copy(a.slots[id*a.slotCap:], vs)
	a.count[id] = int32(len(vs))
}

// removeSlot deletes slot position i of node id, preserving order.
func (a *nodeArena) removeSlot(id int32, i int) {
	base := id * a.slotCap
	copy(a.slots[base+int32(i):], a.slots[base+int32(i)+1:base+a.count[id]])
	a.count[id]--
}

// reset empties the arena, keeping the backing arrays for reuse.
func (a *nodeArena) reset() {
	a.isLeaf = a.isLeaf[:0]
	a.count = a.count[:0]
	a.slots = a.slots[:0]
	a.hullU = a.hullU[:0]
	a.hullL = a.hullL[:0]
	a.volume = a.volume[:0]
	a.coverU = a.coverU[:0]
	a.coverL = a.coverL[:0]
	a.free = a.free[:0]
}

// reserve grows the arena's capacity to hold extra more nodes, so a batched
// ingest performs one reallocation instead of O(log n) doublings.
func (a *nodeArena) reserve(extra int) {
	need := len(a.isLeaf) + extra
	if cap(a.isLeaf) >= need {
		return
	}
	grown := make([]bool, len(a.isLeaf), need)
	copy(grown, a.isLeaf)
	a.isLeaf = grown
	growInt32 := func(s []int32, factor int) []int32 {
		g := make([]int32, len(s), need*factor)
		copy(g, s)
		return g
	}
	growF64 := func(s []float64) []float64 {
		g := make([]float64, len(s), need)
		copy(g, s)
		return g
	}
	a.count = growInt32(a.count, 1)
	a.slots = growInt32(a.slots, int(a.slotCap))
	a.hullU = growInt32(a.hullU, 1)
	a.hullL = growInt32(a.hullL, 1)
	a.volume = growF64(a.volume)
	a.coverU = growF64(a.coverU)
	a.coverL = growF64(a.coverL)
}

// len returns the number of node ids ever allocated and not reset (live +
// free-listed).
func (a *nodeArena) len() int { return len(a.isLeaf) }

// live returns the number of in-use nodes.
func (a *nodeArena) live() int { return len(a.isLeaf) - len(a.free) }
