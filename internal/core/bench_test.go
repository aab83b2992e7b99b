package core

import (
	"testing"

	"sapla/internal/repr"
)

// BenchmarkReduce times the reduction hot path: a warmed-up Reducer reducing
// a length-1024 series into a recycled representation. TestReduceIntoAllocs
// holds its zero allocations per call.
func BenchmarkReduce(b *testing.B) {
	c := randWalk(44, 1024)
	r := NewReducer()
	var dst repr.Linear
	var err error
	if dst, err = r.ReduceInto(dst, c, 12); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = r.ReduceInto(dst, c, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSAPLAByLength verifies the near-linear growth of the full
// three-stage pipeline (Table 1's O(n(N + log n)) row).
func BenchmarkSAPLAByLength(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		c := randWalk(int64(n), n)
		b.Run(itoa(n), func(b *testing.B) {
			s := New()
			for i := 0; i < b.N; i++ {
				if _, err := s.Reduce(c, 12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSAPLAByBudget shows the N dependence at fixed n.
func BenchmarkSAPLAByBudget(b *testing.B) {
	c := randWalk(7, 1024)
	for _, m := range []int{6, 12, 24, 48} {
		b.Run(itoa(m), func(b *testing.B) {
			s := New()
			for i := 0; i < b.N; i++ {
				if _, err := s.Reduce(c, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSAPLAExactBounds prices the ExactBounds ablation.
func BenchmarkSAPLAExactBounds(b *testing.B) {
	c := randWalk(8, 1024)
	for _, exact := range []bool{false, true} {
		name := "conditional"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			s := &SAPLA{ExactBounds: exact}
			for i := 0; i < b.N; i++ {
				if _, err := s.Reduce(c, 24); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
