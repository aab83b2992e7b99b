package index

import "slices"

// nilNode marks an absent node id (empty tree, no best branch yet).
const nilNode = int32(-1)

// nodeArena is both trees' node storage: index-addressed parallel slices
// (structure of arrays) instead of pointer-linked structs. Node i's child or
// entry ids live in the fixed slot block slots[i*slotCap : (i+1)*slotCap] —
// slotCap is maxFill+1 so a node can hold the one-over-full state between an
// insert and its split without spilling. covers[i] is node i's cover, the one
// thing the two trees store differently: an MBR (RTree) or a hull of entry ids
// (DBCH). Freed node ids go on a free list and are reused before the slices
// grow, so steady-state insert and delete allocate nothing; a reused id keeps
// its stale cover until the tree rebuilds it, which it does before any read
// (an MBR keeps its arrays). Snapshotting the tree shape is copying a handful
// of slices.
type nodeArena[C any] struct {
	slotCap int32 // slots per node: maxFill+1

	isLeaf []bool
	count  []int32 // used slots per node
	slots  []int32 // node i at [i*slotCap, i*slotCap+count[i])
	covers []C

	free []int32 // reusable node ids
}

// alloc returns a node id, reusing the free list before growing the arena.
func (a *nodeArena[C]) alloc(leaf bool) int32 {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		a.isLeaf[id] = leaf
		a.count[id] = 0
		return id
	}
	id := int32(len(a.isLeaf))
	a.isLeaf = append(a.isLeaf, leaf)
	a.count = append(a.count, 0)
	a.slots = append(a.slots, make([]int32, a.slotCap)...)
	var c C
	a.covers = append(a.covers, c)
	return id
}

// freeNode returns a node id to the free list. The slot block is left as-is
// and no array moves, so a slotsOf slice held across the call stays valid;
// alloc reinitialises the header fields on reuse.
func (a *nodeArena[C]) freeNode(id int32) {
	a.count[id] = 0
	a.free = append(a.free, id)
}

// slotsOf returns node id's live slots. The slice aliases the arena: any
// alloc, reserve, reset or Compact may grow (and move) the backing array, so
// callers must not hold it across such a call, return it, or store it in a
// struct field. TestArenaFreeListReuse holds both trees to this: after every
// alloc/freeNode/reserve/reset cycle it checks the reachable entries, the
// covers and k-NN answers against a model of what the tree stores.
func (a *nodeArena[C]) slotsOf(id int32) []int32 {
	base := id * a.slotCap
	return a.slots[base : base+a.count[id] : base+a.slotCap]
}

// push appends v to node id's slots. The caller guarantees the node holds at
// most maxFill = slotCap−1 slots, so the one-over-full pre-split state fits.
func (a *nodeArena[C]) push(id int32, v int32) {
	a.slots[id*a.slotCap+a.count[id]] = v
	a.count[id]++
}

// setSlots replaces node id's slots with vs (len(vs) ≤ slotCap).
func (a *nodeArena[C]) setSlots(id int32, vs []int32) {
	copy(a.slots[id*a.slotCap:], vs)
	a.count[id] = int32(len(vs))
}

// removeSlot deletes slot position i of node id, preserving order.
func (a *nodeArena[C]) removeSlot(id int32, i int) {
	base := id * a.slotCap
	copy(a.slots[base+int32(i):], a.slots[base+int32(i)+1:base+a.count[id]])
	a.count[id]--
}

// reset empties the arena, keeping the backing arrays for reuse.
func (a *nodeArena[C]) reset() {
	a.isLeaf = a.isLeaf[:0]
	a.count = a.count[:0]
	a.slots = a.slots[:0]
	a.covers = a.covers[:0]
	a.free = a.free[:0]
}

// reserve grows the arena's capacity to hold extra more nodes, so a batched
// ingest performs one reallocation instead of O(log n) doublings.
func (a *nodeArena[C]) reserve(extra int) {
	if cap(a.isLeaf)-len(a.isLeaf) >= extra {
		return
	}
	a.isLeaf = slices.Grow(a.isLeaf, extra)
	a.count = slices.Grow(a.count, extra)
	a.slots = slices.Grow(a.slots, extra*int(a.slotCap))
	a.covers = slices.Grow(a.covers, extra)
}

// len returns the number of node ids ever allocated and not reset (live +
// free-listed).
func (a *nodeArena[C]) len() int { return len(a.isLeaf) }
