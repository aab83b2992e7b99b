package dist

import (
	"math"
	"math/rand"
	"testing"

	"sapla/internal/core"
	"sapla/internal/repr"
	"sapla/internal/ts"
)

func wsWalk(seed int64, n int) ts.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(ts.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

func wsReps(t testing.TB, seeds []int64, n, m int) []repr.Linear {
	t.Helper()
	meth := core.New()
	out := make([]repr.Linear, len(seeds))
	for i, sd := range seeds {
		rep, err := meth.Reduce(wsWalk(sd, n), m)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = rep.(repr.Linear)
	}
	return out
}

func TestWorkspaceNewQueryMatchesFresh(t *testing.T) {
	w := NewWorkspace()
	for seed := int64(0); seed < 5; seed++ {
		raw := wsWalk(seed, 100+int(seed)*13)
		fresh := NewQuery(raw, nil)
		reused := w.NewQuery(raw, nil)
		if reused.Prefix.Len() != fresh.Prefix.Len() {
			t.Fatalf("seed %d: prefix length mismatch", seed)
		}
		for lo := 0; lo < fresh.Prefix.Len(); lo += 7 {
			hi := lo + 5
			if hi > fresh.Prefix.Len() {
				hi = fresh.Prefix.Len()
			}
			if lo >= hi {
				continue
			}
			if fresh.Prefix.Sum(lo, hi) != reused.Prefix.Sum(lo, hi) {
				t.Fatalf("seed %d: prefix sums diverge on window [%d,%d)", seed, lo, hi)
			}
		}
	}
}

func TestPairwisePARMatchesScalar(t *testing.T) {
	qs := wsReps(t, []int64{1, 2, 3}, 128, 12)
	cs := wsReps(t, []int64{10, 11, 12, 13}, 128, 12)
	w := NewWorkspace()
	got, err := w.PairwisePAR(qs, cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs)*len(cs) {
		t.Fatalf("matrix size %d, want %d", len(got), len(qs)*len(cs))
	}
	for qi := range qs {
		for ci := range cs {
			want, err := PAR(qs[qi], cs[ci])
			if err != nil {
				t.Fatal(err)
			}
			if got[qi*len(cs)+ci] != want {
				t.Fatalf("cell (%d,%d) = %v, want %v", qi, ci, got[qi*len(cs)+ci], want)
			}
		}
	}
	// A second, smaller batch must reuse the buffer and stay correct.
	got2, err := w.PairwisePAR(qs[:1], cs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := PAR(qs[0], cs[1]); got2[1] != want {
		t.Fatalf("reused buffer cell = %v, want %v", got2[1], want)
	}
}

// TestDistAllocs is the zero-allocation contract of the distance hot paths
// (BenchmarkDistPAR's and BenchmarkPairwisePAR's -benchmem column, held on
// every test run): on a workspace warmed by one call of the same shape,
// preparing a query, a batch Dist_PAR matrix and one flat Dist_PAR evaluation
// do not touch the heap.
func TestDistAllocs(t *testing.T) {
	raw := wsWalk(100, 1024)
	reps := wsReps(t, []int64{101, 102, 103}, 1024, 12)
	fq, fc := FlattenLinear(reps[0]), FlattenLinear(reps[1])
	w := NewWorkspace()
	rows := []struct {
		name string
		run  func()
	}{
		{"Workspace.NewQuery", func() {
			if q := w.NewQuery(raw, reps[0]); q.Prefix.Len() != len(raw) {
				t.Fatal("prefix does not cover the series")
			}
		}},
		{"Workspace.PairwisePAR", func() {
			if _, err := w.PairwisePAR(reps[:1], reps[1:]); err != nil {
				t.Fatal(err)
			}
		}},
		{"PARFlat", func() {
			if d := PARFlat(fq, fc); math.IsInf(d, 1) {
				t.Fatal("incompatible flats")
			}
		}},
	}
	for _, row := range rows {
		// AllocsPerRun's own warm-up run sizes the buffers.
		if allocs := testing.AllocsPerRun(50, row.run); allocs != 0 {
			t.Errorf("%s allocates %v times per call on a warmed workspace", row.name, allocs)
		}
	}
}

// BenchmarkDistPAR times one Dist_PAR evaluation between two warmed
// representations (TestDistAllocs holds its zero allocations). The
// scalar sub-benchmark runs the generic merge loop; unrolled runs the
// 4-way-unrolled kernel over pre-flattened SoA representations, the form the
// DBCH filter path actually calls.
func BenchmarkDistPAR(b *testing.B) {
	reps := wsReps(b, []int64{101, 102}, 1024, 12)
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

// BenchmarkPairwisePAR prices the batch kernel per pair (buffer reused).
func BenchmarkPairwisePAR(b *testing.B) {
	qs := wsReps(b, []int64{1, 2, 3, 4}, 1024, 12)
	cs := wsReps(b, []int64{10, 11, 12, 13, 14, 15, 16, 17}, 1024, 12)
	w := NewWorkspace()
	if _, err := w.PairwisePAR(qs, cs); err != nil { // warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.PairwisePAR(qs, cs); err != nil {
			b.Fatal(err)
		}
	}
}
