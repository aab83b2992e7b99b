package subseq

import (
	"fmt"
	"math/rand"
	"testing"

	"sapla/internal/ts"
)

// BenchmarkSubseq: build indexes every window of an n-point random walk at
// window length w; match is one k = 10 query, cycling through 20 windows at
// random offsets plus N(0, 0.5²) noise. The 40000x256 shape is ROADMAP
// measurement 6's.
func BenchmarkSubseq(b *testing.B) {
	for _, sh := range []struct{ n, w int }{{10000, 128}, {40000, 256}} {
		long := makeLong(9, sh.n, nil)
		name := fmt.Sprintf("%dx%d", sh.n, sh.w)
		b.Run(name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := New(long, sh.w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/match", func(b *testing.B) {
			ix, err := New(long, sh.w)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(10))
			queries := make([]ts.Series, 20)
			for j := range queries {
				off := rng.Intn(sh.n - sh.w)
				queries[j] = long[off : off+sh.w].Clone()
				for i := range queries[j] {
					queries[j][i] += 0.5 * rng.NormFloat64()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.Match(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
