package core

import (
	"encoding/binary"
	"math"
	"testing"

	"sapla/internal/repr"
	"sapla/internal/ts"
)

// equalLinear reports whether two linear representations are byte-identical
// (exact float equality — reuse must not perturb a single bit).
func equalLinear(a, b repr.Linear) bool {
	if a.N != b.N || len(a.Segs) != len(b.Segs) {
		return false
	}
	for i := range a.Segs {
		if a.Segs[i] != b.Segs[i] {
			return false
		}
	}
	return true
}

// TestReducerMatchesFreshReduce: a warm Reducer must produce exactly what a
// fresh SAPLA reduction produces, series after series.
func TestReducerMatchesFreshReduce(t *testing.T) {
	r := NewReducer()
	var dst repr.Linear
	for seed := int64(0); seed < 8; seed++ {
		n := 64 + int(seed)*37
		c := randWalk(seed+9000, n)
		for _, m := range []int{6, 12, 24} {
			_, _, want, err := New().ReduceStages(c, m)
			if err != nil {
				t.Fatal(err)
			}
			dst, err = r.ReduceInto(dst, c, m)
			if err != nil {
				t.Fatal(err)
			}
			if !equalLinear(dst, want) {
				t.Fatalf("seed %d m %d: reused reducer diverged from fresh reduction", seed, m)
			}
		}
	}
}

// TestReduceIntoAllocs is the zero-allocation contract of the reduction hot
// path (BenchmarkReduce's -benchmem column, held on every test run): a
// Reducer that has reduced one series of this shape into dst reduces the next
// without touching the heap — state, split/merge scratch, priority queue and
// dst's segment buffer are all reused, and segment.SumAbsLine's closure stays
// on the stack.
func TestReduceIntoAllocs(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{1024, 12}, {256, 24}} {
		c := randWalk(44, tc.n)
		r := NewReducer()
		var dst repr.Linear
		// AllocsPerRun's own warm-up run sizes the workspace and dst.
		allocs := testing.AllocsPerRun(20, func() {
			var err error
			if dst, err = r.ReduceInto(dst, c, tc.m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d m=%d: warmed ReduceInto allocates %v times per call", tc.n, tc.m, allocs)
		}
	}
}

// TestReduceAllocs holds the allocating entry points to what they return: a
// warm Reducer.Reduce or SAPLA.Reduce (whose pool keeps its Reducer)
// allocates the segment slice, sized once, and the Representation's box —
// not a slice grown by doubling.
func TestReduceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's")
	}
	c := randWalk(45, 1024)
	r := NewReducer()
	for _, m := range []int{12, 24} {
		for name, reduce := range map[string]func(ts.Series, int) (repr.Representation, error){
			"Reducer.Reduce": r.Reduce,
			"SAPLA.Reduce":   New().Reduce,
		} {
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := reduce(c, m); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Errorf("%s m=%d: a warm 1024-point reduction allocates %v times, want at most 2", name, m, allocs)
			}
		}
	}
}

// TestReducerConfigVariants: the pooled SAPLA.Reduce path must honour every
// configuration knob exactly as a dedicated Reducer does.
func TestReducerConfigVariants(t *testing.T) {
	c := randWalk(4242, 200)
	cfgs := []SAPLA{
		{},
		{SkipRefine: true},
		{SkipEndpointMove: true},
		{ExactBounds: true},
	}
	for i, cfg := range cfgs {
		s := cfg
		got, err := s.Reduce(c, 18)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewReducerFor(cfg).Reduce(c, 18)
		if err != nil {
			t.Fatal(err)
		}
		if !equalLinear(got.(repr.Linear), want.(repr.Linear)) {
			t.Fatalf("cfg %d: pooled Reduce diverged from dedicated Reducer", i)
		}
	}
}

// FuzzReducerReuse: reducing series B on a workspace that just reduced
// series A must equal a fresh reduction of B — no state bleed between calls.
func FuzzReducerReuse(f *testing.F) {
	mk := func(n int, scale float64) []byte {
		out := make([]byte, 0, n*8)
		for i := 0; i < n; i++ {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(scale*float64(i%11)))
			out = append(out, b[:]...)
		}
		return out
	}
	f.Add(mk(64, 1.5), mk(40, -2.25), 12)
	f.Add(mk(16, 0.5), mk(200, 3.0), 9)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, m int) {
		if m < 0 || m > 120 {
			return
		}
		decode := func(raw []byte) (ts.Series, bool) {
			n := len(raw) / 8
			if n > 2048 {
				n = 2048
			}
			c := make(ts.Series, 0, n)
			for i := 0; i < n; i++ {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
					return nil, false
				}
				c = append(c, v)
			}
			return c, true
		}
		a, ok := decode(rawA)
		if !ok {
			return
		}
		b, ok := decode(rawB)
		if !ok {
			return
		}
		r := NewReducer()
		var dst repr.Linear
		dst, _ = r.ReduceInto(dst, a, m) // warm the workspace on A (may fail; irrelevant)
		dst, err := r.ReduceInto(dst, b, m)
		if err != nil {
			// A fresh reduction must fail identically.
			if _, freshErr := New().Reduce(b, m); freshErr == nil {
				t.Fatalf("reused reducer failed (%v) where fresh succeeded", err)
			}
			return
		}
		freshRep, err := New().Reduce(b, m)
		if err != nil {
			t.Fatalf("fresh reduction failed (%v) where reused succeeded", err)
		}
		if !equalLinear(dst, freshRep.(repr.Linear)) {
			t.Fatal("state bleed: reused reducer result differs from fresh reduction")
		}
	})
}
