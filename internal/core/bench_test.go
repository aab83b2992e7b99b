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

// benchReduceMix reduces the family mix round robin on one warm Reducer;
// ns/op is the cost of one series.
func benchReduceMix(b *testing.B, cfg SAPLA, n int) {
	corpus := familySeries(n, 1)
	r := NewReducerFor(cfg)
	var dst repr.Linear
	for _, c := range corpus { // warm-up: size the workspace and dst
		var err error
		if dst, err = r.ReduceInto(dst, c, 12); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = r.ReduceInto(dst, corpus[i%len(corpus)], 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceMix is the reducer on what it is served: every ucr family at
// the end-to-end benchmark's two lengths, m = 12. Run it at -cpu 1.
func BenchmarkReduceMix(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run("n"+itoa(n), func(b *testing.B) { benchReduceMix(b, SAPLA{}, n) })
	}
}

// BenchmarkReduceByStage splits BenchmarkReduceMix/n1024 by the paper's three
// stages: initialization (with the merge/split down to N), plus the
// split & merge refinement, plus endpoint movement. Differences between
// adjacent rows are what each stage costs.
func BenchmarkReduceByStage(b *testing.B) {
	for _, st := range []struct {
		name string
		cfg  SAPLA
	}{
		{"init", SAPLA{SkipRefine: true, SkipEndpointMove: true}},
		{"init+refine", SAPLA{SkipEndpointMove: true}},
		{"init+refine+move", SAPLA{}},
	} {
		b.Run(st.name, func(b *testing.B) { benchReduceMix(b, st.cfg, 1024) })
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

// BenchmarkOnline streams a 1024-point series into an Online and snapshots
// it: Algorithm 4.2 point by point, then the finishing passes.
func BenchmarkOnline(b *testing.B) {
	c := randWalk(44, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		on, err := NewOnline(4, SAPLA{})
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range c {
			on.Append(v)
		}
		if _, err := on.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
