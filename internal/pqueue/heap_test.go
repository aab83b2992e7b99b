package pqueue

import (
	"math/rand"
	"sort"
	"testing"
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

// TestHeapMatchesQueue cross-checks Heap against the handle-based Queue on a
// random push/pop interleaving.
func TestHeapMatchesQueue(t *testing.T) {
	h := NewMinHeap[int]()
	q := NewMin[int]()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		if h.Len() == 0 || rng.Intn(3) > 0 {
			p := rng.NormFloat64()
			h.Push(p, i)
			q.Push(p, i)
			continue
		}
		hp, hv := h.Pop()
		it := q.Pop()
		if hp != it.Priority || hv != it.Value {
			t.Fatalf("step %d: heap (%v,%d) != queue (%v,%d)", i, hp, hv, it.Priority, it.Value)
		}
	}
}

// TestHeapReuseAllocs is the zero-allocation contract both heaps give the
// k-NN searches: once the backing array has grown, a Reset-and-refill cycle
// does not touch the heap.
func TestHeapReuseAllocs(t *testing.T) {
	const n = 256
	h, th := NewMinHeap[int](), NewMaxTieHeap[int]()
	rows := []struct {
		name  string
		cycle func()
	}{
		{"Heap", func() {
			h.Reset()
			for j := 0; j < n; j++ {
				h.Push(float64((j*37)%n), j)
			}
			for h.Len() > 0 {
				h.Pop()
			}
		}},
		{"TieHeap", func() {
			th.Reset()
			for j := 0; j < n; j++ {
				th.Push(float64((j*37)%16), int64(j), j)
			}
			for th.Len() > 0 {
				th.Pop()
			}
		}},
	}
	for _, row := range rows {
		// AllocsPerRun's own warm-up run grows the backing array.
		if allocs := testing.AllocsPerRun(20, row.cycle); allocs != 0 {
			t.Errorf("%s: Reset/Push/Pop cycle allocates %v times", row.name, allocs)
		}
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
