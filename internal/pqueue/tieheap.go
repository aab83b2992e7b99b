package pqueue

// TieHeap is Heap with a deterministic total order: items are compared by
// priority first and by an integer tie key second, so two items with equal
// float priorities still have one canonical winner. The k-NN search keys it
// with (exact distance, entry ID), which is what makes a k-best selection —
// and therefore a scatter-gather merge across index shards — byte-identical
// regardless of traversal order, shard count or worker count.
//
// Like Heap it is value-based and reusable: Push/Pop perform no per-item
// allocations beyond amortised growth of the backing slice, and Reset keeps
// the storage for the next search.
type TieHeap[T any] struct {
	items []tieItem[T]
	min   bool
}

type tieItem[T any] struct {
	priority float64
	tie      int64
	value    T
}

// NewMaxTieHeap returns a tie-broken heap that pops the largest
// (priority, tie) pair first.
func NewMaxTieHeap[T any]() *TieHeap[T] { return &TieHeap[T]{min: false} }

// Len returns the number of queued items.
func (h *TieHeap[T]) Len() int { return len(h.items) }

// Reset empties the heap, keeping its backing storage for reuse.
func (h *TieHeap[T]) Reset() {
	var zero tieItem[T]
	for i := range h.items {
		h.items[i] = zero // drop references so reuse does not pin values
	}
	h.items = h.items[:0]
}

// Push inserts a value under the (priority, tie) key.
func (h *TieHeap[T]) Push(priority float64, tie int64, v T) {
	h.items = append(h.items, tieItem[T]{priority: priority, tie: tie, value: v})
	h.up(len(h.items) - 1)
}

// PeekPriority returns the best item's priority without removing it. The
// heap must be non-empty.
func (h *TieHeap[T]) PeekPriority() float64 { return h.items[0].priority }

// PeekTie returns the best item's tie key without removing it. The heap
// must be non-empty.
func (h *TieHeap[T]) PeekTie() int64 { return h.items[0].tie }

// Pop removes and returns the best priority, tie key and value. The heap
// must be non-empty.
func (h *TieHeap[T]) Pop() (float64, int64, T) {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero tieItem[T]
	h.items[last] = zero
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top.priority, top.tie, top.value
}

// better reports whether (ap, at) beats (bp, bt) under the heap's direction.
// The float equality is exact on purpose: the tie key must only take over
// when the priorities are bit-comparable equals, anything looser would make
// the order depend on evaluation noise.
func (h *TieHeap[T]) better(ap float64, at int64, bp float64, bt int64) bool {
	if ap != bp { //sapla:floateq exact comparison: the tie key decides only true float ties
		if h.min {
			return ap < bp
		}
		return ap > bp
	}
	if h.min {
		return at < bt
	}
	return at > bt
}

func (h *TieHeap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.better(h.items[i].priority, h.items[i].tie, h.items[parent].priority, h.items[parent].tie) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *TieHeap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.better(h.items[l].priority, h.items[l].tie, h.items[best].priority, h.items[best].tie) {
			best = l
		}
		if r < n && h.better(h.items[r].priority, h.items[r].tie, h.items[best].priority, h.items[best].tie) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}
