package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	for _, min := range []bool{true, false} {
		h := NewMaxHeap[int]()
		if min {
			h = NewMinHeap[int]()
		}
		rng := rand.New(rand.NewSource(1))
		var want []float64
		for i := 0; i < 200; i++ {
			p := rng.NormFloat64()
			h.Push(p, i)
			want = append(want, p)
		}
		sort.Float64s(want)
		if !min {
			for i, j := 0, len(want)-1; i < j; i, j = i+1, j-1 {
				want[i], want[j] = want[j], want[i]
			}
		}
		if h.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", h.Len(), len(want))
		}
		for i, w := range want {
			if got := h.PeekPriority(); got != w {
				t.Fatalf("min=%v peek %d = %v, want %v", min, i, got, w)
			}
			p, _ := h.Pop()
			if p != w {
				t.Fatalf("min=%v pop %d = %v, want %v", min, i, p, w)
			}
		}
	}
}

func TestHeapResetReuse(t *testing.T) {
	h := NewMinHeap[string]()
	h.Push(2, "b")
	h.Push(1, "a")
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push(3, "c")
	h.Push(0, "z")
	if _, v := h.Pop(); v != "z" {
		t.Fatalf("pop after reuse = %q, want z", v)
	}
	if _, v := h.Pop(); v != "c" {
		t.Fatalf("pop after reuse = %q, want c", v)
	}
}

// drain pops every item, returning the priorities and values in pop order.
func drain[T any](h *Heap[T]) ([]float64, []T) {
	var ps []float64
	var vs []T
	for h.Len() > 0 {
		p, v := h.Pop()
		ps, vs = append(ps, p), append(vs, v)
	}
	return ps, vs
}

// TestMinOrder and TestMaxOrder check that each value leaves with its own
// priority, which TestHeapOrdering does not look at.
func TestMinOrder(t *testing.T) {
	h := NewMinHeap[string]()
	for _, p := range []float64{5, 1, 4, 2, 3} {
		h.Push(p, string(rune('a'+int(p))))
	}
	ps, vs := drain(h)
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if ps[i] != want || vs[i] != string(rune('a'+int(want))) {
			t.Fatalf("min order = %v %v", ps, vs)
		}
	}
}

func TestMaxOrder(t *testing.T) {
	h := NewMaxHeap[int]()
	for _, p := range []float64{5, 1, 4, 2, 3} {
		h.Push(p, 10*int(p))
	}
	ps, vs := drain(h)
	for i, want := range []float64{5, 4, 3, 2, 1} {
		if ps[i] != want || vs[i] != 10*int(want) {
			t.Fatalf("max order = %v %v", ps, vs)
		}
	}
}

func TestEmpty(t *testing.T) {
	for _, h := range []*Heap[int]{NewMinHeap[int](), NewMaxHeap[int]()} {
		if h.Len() != 0 {
			t.Fatal("new heap not empty")
		}
		h.Push(1, 1)
		h.Pop()
		if h.Len() != 0 {
			t.Fatal("drained heap not empty")
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	h := NewMinHeap[int]()
	h.Push(2, 20)
	h.Push(1, 10)
	if h.PeekPriority() != 1 || h.PeekValue() != 10 || h.Len() != 2 {
		t.Fatal("Peek wrong")
	}
	if p, v := h.Pop(); p != 1 || v != 10 || h.Len() != 1 {
		t.Fatal("Pop after Peek wrong")
	}
}

// Property: popping always yields the sorted priorities, in either direction,
// under a random mix of pushes, pops and Resets.
func TestRandomOperations(t *testing.T) {
	f := func(seed int64, min bool) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewMaxHeap[int]()
		if min {
			h = NewMinHeap[int]()
		}
		var live []float64
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(20); {
			case r == 0:
				h.Reset()
				live = live[:0]
			case r < 7 && len(live) > 0:
				p, _ := h.Pop()
				live = without(live, p)
			default:
				p := rng.NormFloat64() * 100
				h.Push(p, op)
				live = append(live, p)
			}
		}
		sort.Float64s(live)
		if !min {
			sort.Sort(sort.Reverse(sort.Float64Slice(live)))
		}
		got, _ := drain(h)
		if len(got) != len(live) {
			return false
		}
		for i := range got {
			if got[i] != live[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// without removes one occurrence of p from ps.
func without(ps []float64, p float64) []float64 {
	for i, q := range ps {
		if q == p {
			return append(ps[:i], ps[i+1:]...)
		}
	}
	panic("popped a priority never pushed")
}

// TestHeapMatchesSortedSlice cross-checks Heap against a sorted slice of the
// queued (priority, value) pairs on a random push/pop interleaving.
func TestHeapMatchesSortedSlice(t *testing.T) {
	type item struct {
		p float64
		v int
	}
	h := NewMinHeap[int]()
	var ref []item // ascending by priority
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		if h.Len() == 0 || rng.Intn(3) > 0 {
			p := rng.NormFloat64()
			h.Push(p, i)
			at := sort.Search(len(ref), func(j int) bool { return ref[j].p > p })
			ref = append(ref, item{})
			copy(ref[at+1:], ref[at:])
			ref[at] = item{p, i}
			continue
		}
		hp, hv := h.Pop()
		want := ref[0]
		ref = ref[1:]
		if hp != want.p || hv != want.v {
			t.Fatalf("step %d: heap (%v,%d) != sorted slice (%v,%d)", i, hp, hv, want.p, want.v)
		}
	}
}

// TestHeapReuseAllocs is the zero-allocation contract the heap gives the
// k-NN searches: once the backing array has grown, a Reset-and-refill cycle
// does not touch the heap.
func TestHeapReuseAllocs(t *testing.T) {
	const n = 256
	h := NewMinHeap[int]()
	// AllocsPerRun's own warm-up run grows the backing array.
	allocs := testing.AllocsPerRun(20, func() {
		h.Reset()
		for j := 0; j < n; j++ {
			h.Push(float64((j*37)%n), j)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("Reset/Push/Pop cycle allocates %v times", allocs)
	}
}

// BenchmarkHeapReuse proves the Reset-and-refill cycle is allocation-free
// once the backing array has grown.
func BenchmarkHeapReuse(b *testing.B) {
	h := NewMinHeap[int]()
	rng := rand.New(rand.NewSource(3))
	ps := make([]float64, 256)
	for i := range ps {
		ps[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for j, p := range ps {
			h.Push(p, j)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}

// PeekValue returns the best value without removing it. The heap must be
// non-empty.
func (h *Heap[T]) PeekValue() T { return h.items[0].value }
