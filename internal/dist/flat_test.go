package dist

import (
	"math"
	"testing"

	"sapla/internal/repr"
)

// TestPARFlatMatchesPAR checks the unrolled flat kernel against the generic
// merge loop across lengths and budgets. The two compute the same algebra in
// different association orders, so equality is to relative tolerance, not
// bit-exact.
func TestPARFlatMatchesPAR(t *testing.T) {
	cases := []struct{ n, m int }{
		{32, 6}, {64, 9}, {128, 12}, {128, 24}, {256, 12}, {1024, 12}, {1024, 48},
	}
	seed := int64(700)
	for _, tc := range cases {
		for trial := 0; trial < 4; trial++ {
			a := linearReps(t, []int64{seed, seed + 1}, tc.n, tc.m)
			seed += 2
			want, err := PAR(a[0], a[1])
			if err != nil {
				t.Fatalf("n=%d m=%d: PAR: %v", tc.n, tc.m, err)
			}
			fa, fb := FlattenLinear(a[0]), FlattenLinear(a[1])
			if fa == nil || fb == nil {
				t.Fatalf("n=%d m=%d: flatten returned nil", tc.n, tc.m)
			}
			got := PARFlat(fa, fb)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("n=%d m=%d trial %d: PARFlat = %v, PAR = %v", tc.n, tc.m, trial, got, want)
			}
		}
	}
}

// TestPARFlatSelfZero: distance to itself is exactly zero (every da and db
// cancels before any rounding).
func TestPARFlatSelfZero(t *testing.T) {
	reps := linearReps(t, []int64{900}, 256, 12)
	f := FlattenLinear(reps[0])
	if d := PARFlat(f, f); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

// TestPARFlatIncompatible: every malformed pairing answers +Inf instead of
// a wrong finite distance.
func TestPARFlatIncompatible(t *testing.T) {
	reps := linearReps(t, []int64{901, 902}, 128, 12)
	f := FlattenLinear(reps[0])
	short := FlattenLinear(linearReps(t, []int64{903}, 64, 12)[0])
	torn := FlattenLinear(reps[1])
	torn.R[len(torn.R)-1] = 100 // no longer covers [0, N)
	for name, pair := range map[string][2]*FlatLinear{
		"nil q":            {nil, f},
		"nil c":            {f, nil},
		"both nil":         {nil, nil},
		"length mismatch":  {f, short},
		"torn candidate":   {f, torn},
		"empty candidate":  {f, {N: 128}},
		"zero-length pair": {{}, {}},
	} {
		if d := PARFlat(pair[0], pair[1]); !math.IsInf(d, 1) {
			t.Fatalf("%s: PARFlat = %v, want +Inf", name, d)
		}
	}
}

// TestFlattenLinearNil: representations with no linear form (or no content)
// flatten to nil, which routes callers to the generic measure.
func TestFlattenLinearNil(t *testing.T) {
	if FlattenLinear(nil) != nil {
		t.Fatal("nil representation flattened")
	}
	if FlattenLinear(repr.Linear{}) != nil {
		t.Fatal("empty linear flattened")
	}
	if FlattenLinear(repr.Linear{N: 8}) != nil {
		t.Fatal("segment-less linear flattened")
	}
}

// TestFlattenLinearIntercepts pins the global-time intercept construction:
// evaluating segment i's line at global position p via A[i]*p + C[i] must
// equal the repr.Linear evaluation in local time.
func TestFlattenLinearIntercepts(t *testing.T) {
	reps := linearReps(t, []int64{910}, 256, 12)
	l, ok := AsLinear(reps[0])
	if !ok {
		t.Fatal("not linear")
	}
	f := FlattenLinear(reps[0])
	start := 0
	for i, s := range l.Segs {
		for p := start; p <= s.R; p++ {
			want := s.Line.A*float64(p-start) + s.Line.B
			got := f.A[i]*float64(p) + f.C[i]
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("segment %d, pos %d: flat eval %v, linear eval %v", i, p, got, want)
			}
		}
		start = s.R + 1
	}
}
