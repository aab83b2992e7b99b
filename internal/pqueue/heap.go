// Package pqueue provides the value-based binary heap behind SAPLA's
// bookkeeping (the paper's η queue of increment areas and the endpoint
// movement's β order) and the k-NN searches' frontiers and seed sets: Heap
// orders by a float64 priority and is reusable.
package pqueue

// Heap is a binary-heap priority queue over a float64 priority: items are
// stored inline in one slice, so Push/Pop perform no per-item allocations and
// Reset lets a long-lived Heap be reused across reductions and searches with
// zero steady-state heap traffic.
type Heap[T any] struct {
	items []heapItem[T]
	min   bool
}

type heapItem[T any] struct {
	priority float64
	value    T
}

// NewMinHeap returns a heap that pops the smallest priority first.
func NewMinHeap[T any]() *Heap[T] { return &Heap[T]{min: true} }

// NewMaxHeap returns a heap that pops the largest priority first.
func NewMaxHeap[T any]() *Heap[T] { return &Heap[T]{min: false} }

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Reset empties the heap, keeping its backing storage for reuse.
func (h *Heap[T]) Reset() {
	var zero heapItem[T]
	for i := range h.items {
		h.items[i] = zero // drop references so reuse does not pin values
	}
	h.items = h.items[:0]
}

// Push inserts a value with the given priority.
func (h *Heap[T]) Push(priority float64, v T) {
	h.items = append(h.items, heapItem[T]{priority: priority, value: v})
	h.up(len(h.items) - 1)
}

// PeekPriority returns the best priority without removing it. The heap must
// be non-empty.
func (h *Heap[T]) PeekPriority() float64 { return h.items[0].priority }

// Pop removes and returns the best priority and value. The heap must be
// non-empty.
func (h *Heap[T]) Pop() (float64, T) {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	var zero heapItem[T]
	h.items[last] = zero
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top.priority, top.value
}

func (h *Heap[T]) better(a, b float64) bool {
	if h.min {
		return a < b
	}
	return a > b
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.better(h.items[i].priority, h.items[parent].priority) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.better(h.items[l].priority, h.items[best].priority) {
			best = l
		}
		if r < n && h.better(h.items[r].priority, h.items[best].priority) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}
