package pqueue

import (
	"math/rand"
	"testing"
)

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	h := NewMinHeap[int]()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(rng.Float64(), i)
		if h.Len() > 1024 {
			h.Pop()
		}
	}
}
