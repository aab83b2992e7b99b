package dist

import (
	"math"
	"math/rand"
	"testing"

	"sapla/internal/core"
	"sapla/internal/repr"
	"sapla/internal/ts"
)

// linearReps reduces one random walk of length n per seed with SAPLA at
// budget m.
func linearReps(t testing.TB, seeds []int64, n, m int) []repr.Linear {
	t.Helper()
	meth := core.New()
	out := make([]repr.Linear, len(seeds))
	for i, sd := range seeds {
		rng := rand.New(rand.NewSource(sd))
		s := make(ts.Series, n)
		var v float64
		for j := range s {
			v += rng.NormFloat64()
			s[j] = v
		}
		rep, err := meth.Reduce(s, m)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rep.(repr.Linear)
	}
	return out
}

// TestDistAllocs is the zero-allocation contract of the distance hot path
// (BenchmarkDistPAR's -benchmem column, held on every test run): one flat
// Dist_PAR evaluation does not touch the heap.
func TestDistAllocs(t *testing.T) {
	reps := linearReps(t, []int64{101, 102}, 1024, 12)
	fq, fc := FlattenLinear(reps[0]), FlattenLinear(reps[1])
	allocs := testing.AllocsPerRun(50, func() {
		if d := PARFlat(fq, fc); math.IsInf(d, 1) {
			t.Fatal("incompatible flats")
		}
	})
	if allocs != 0 {
		t.Errorf("PARFlat allocates %v times per call", allocs)
	}
}

// BenchmarkDistPAR times one Dist_PAR evaluation between two warmed
// representations (TestDistAllocs holds its zero allocations). The
// scalar sub-benchmark runs the generic merge loop; unrolled runs the
// 4-way-unrolled kernel over pre-flattened SoA representations, the form the
// DBCH filter path actually calls.
func BenchmarkDistPAR(b *testing.B) {
	reps := linearReps(b, []int64{101, 102}, 1024, 12)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PAR(reps[0], reps[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unrolled", func(b *testing.B) {
		q, c := FlattenLinear(reps[0]), FlattenLinear(reps[1])
		if q == nil || c == nil {
			b.Fatal("representations did not flatten")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if d := PARFlat(q, c); math.IsInf(d, 1) {
				b.Fatal("incompatible flats")
			}
		}
	})
}
