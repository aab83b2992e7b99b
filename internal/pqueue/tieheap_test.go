package pqueue

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTieHeapOrdering pops a random multiset — many deliberate priority
// collisions — and checks the (priority, tie) lexicographic order both ways.
func TestTieHeapOrdering(t *testing.T) {
	type key struct {
		p float64
		t int64
	}
	for _, min := range []bool{true, false} {
		h := NewMaxTieHeap[int]()
		if min {
			h = NewMinTieHeap[int]()
		}
		rng := rand.New(rand.NewSource(1))
		var want []key
		for i := 0; i < 300; i++ {
			// Priorities drawn from a tiny set so ties dominate.
			p := float64(rng.Intn(5))
			tie := int64(rng.Intn(50))
			h.Push(p, tie, i)
			want = append(want, key{p, tie})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].p != want[j].p {
				return want[i].p < want[j].p
			}
			return want[i].t < want[j].t
		})
		if !min {
			for i, j := 0, len(want)-1; i < j; i, j = i+1, j-1 {
				want[i], want[j] = want[j], want[i]
			}
		}
		if h.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", h.Len(), len(want))
		}
		for i, w := range want {
			if got := h.PeekPriority(); got != w.p {
				t.Fatalf("min=%v peek priority %d = %v, want %v", min, i, got, w.p)
			}
			if got := h.PeekTie(); got != w.t {
				t.Fatalf("min=%v peek tie %d = %v, want %v", min, i, got, w.t)
			}
			p, tie, _ := h.Pop()
			if p != w.p || tie != w.t {
				t.Fatalf("min=%v pop %d = (%v,%d), want (%v,%d)", min, i, p, tie, w.p, w.t)
			}
		}
	}
}

// TestTieHeapDeterministicAcrossInsertionOrder pushes the same items in
// shuffled orders and checks the pop sequence never changes — the property
// the scatter-gather k-NN merge rests on.
func TestTieHeapDeterministicAcrossInsertionOrder(t *testing.T) {
	type item struct {
		p   float64
		tie int64
	}
	items := make([]item, 120)
	rng := rand.New(rand.NewSource(9))
	for i := range items {
		items[i] = item{p: float64(rng.Intn(4)), tie: int64(i)}
	}
	var base []item
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]item(nil), items...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		h := NewMaxTieHeap[int]()
		for i, it := range shuffled {
			h.Push(it.p, it.tie, i)
		}
		var got []item
		for h.Len() > 0 {
			p, tie, _ := h.Pop()
			got = append(got, item{p, tie})
		}
		if trial == 0 {
			base = got
			continue
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("trial %d pop %d = %+v, want %+v", trial, i, got[i], base[i])
			}
		}
	}
}

func TestTieHeapResetReuse(t *testing.T) {
	h := NewMinTieHeap[string]()
	h.Push(2, 0, "b")
	h.Push(1, 0, "a")
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d", h.Len())
	}
	h.Push(3, 0, "c")
	h.Push(3, -1, "z")
	if _, _, v := h.Pop(); v != "z" {
		t.Fatalf("pop after reuse = %q, want z", v)
	}
	if _, _, v := h.Pop(); v != "c" {
		t.Fatalf("pop after reuse = %q, want c", v)
	}
}

// BenchmarkTieHeapReuse proves the Reset-and-refill cycle is allocation-free
// once the backing array has grown.
func BenchmarkTieHeapReuse(b *testing.B) {
	h := NewMinTieHeap[int]()
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
			h.Push(p, int64(j), j)
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}

// NewMinTieHeap returns a tie-broken heap that pops the smallest
// (priority, tie) pair first.
func NewMinTieHeap[T any]() *TieHeap[T] { return &TieHeap[T]{min: true} }
