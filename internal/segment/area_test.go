package segment

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sapla/internal/ts"
)

func sumAbsLineBrute(p, q float64, l int) float64 {
	var s float64
	for t := 0; t < l; t++ {
		s += math.Abs(p*float64(t) + q)
	}
	return s
}

func TestSumAbsLineKnown(t *testing.T) {
	tests := []struct {
		p, q float64
		l    int
		want float64
	}{
		{0, 0, 5, 0},
		{0, 2, 5, 10},
		{1, 0, 4, 6},        // 0+1+2+3
		{1, -1.5, 4, 4},     // 1.5+0.5+0.5+1.5
		{-1, 1.5, 4, 4},     // mirrored
		{2, -3, 1, 3},       // single point
		{1, 100, 3, 303},    // no sign change
		{-1, -100, 3, 303},  // no sign change, negative
		{1, -0.5, 2, 1},     // root between samples
		{1, 0, 1, 0},        // root at the only sample
		{0.5, -2, 10, 12.5}, // root exactly at t=4
	}
	for _, tt := range tests {
		got := SumAbsLine(tt.p, tt.q, tt.l)
		if !almostEq(got, tt.want, 1e-12) {
			t.Errorf("SumAbsLine(%v,%v,%d) = %v, want %v", tt.p, tt.q, tt.l, got, tt.want)
		}
	}
}

func TestSumAbsLineMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.NormFloat64() * 3
		q := rng.NormFloat64() * 10
		l := 1 + rng.Intn(64)
		got := SumAbsLine(p, q, l)
		want := sumAbsLineBrute(p, q, l)
		return almostEq(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSumAbsLineZeroLength(t *testing.T) {
	if SumAbsLine(1, 2, 0) != 0 {
		t.Fatal("zero length should give 0")
	}
}

func TestIncrementAreaMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		l := 2 + rng.Intn(30)
		c := randSeries(rng, l+1)
		ext := FitSlice(c[:l])
		inc := Append(ext, l, c[l])
		got := IncrementArea(inc, ext, l)
		var want float64
		for t2 := 0; t2 <= l; t2++ {
			want += math.Abs(inc.Eval(t2) - ext.Eval(t2))
		}
		if !almostEq(got, want, 1e-9) {
			t.Fatalf("IncrementArea = %v, want %v", got, want)
		}
	}
}

func TestReconstructionAreaMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		l1 := 1 + rng.Intn(20)
		l2 := 1 + rng.Intn(20)
		c := randSeries(rng, l1+l2)
		left := FitSlice(c[:l1])
		right := FitSlice(c[l1:])
		merged := Merge(left, l1, right, l2)
		got := ReconstructionArea(merged, left, l1, right, l2)
		var want float64
		for t2 := 0; t2 < l1; t2++ {
			want += math.Abs(merged.Eval(t2) - left.Eval(t2))
		}
		for t2 := 0; t2 < l2; t2++ {
			want += math.Abs(merged.Eval(l1+t2) - right.Eval(t2))
		}
		if !almostEq(got, want, 1e-9) {
			t.Fatalf("ReconstructionArea = %v, want %v", got, want)
		}
	}
}

// Lemma 4.1: the increment segment and the extended segment intersect
// (their endpoint differences d1 and d4 have opposite signs) unless equal.
func TestLemma41Intersection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 2 + rng.Intn(40)
		c := randSeries(rng, l+1)
		ext := FitSlice(c[:l])
		inc := Append(ext, l, c[l])
		d1 := inc.B - ext.B
		d4 := inc.Eval(l) - ext.Eval(l)
		return d1*d4 <= 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Theorem 4.1: d4 ≥ d1, d4 ≥ d2 and d5 = d3 + d4 in magnitude.
func TestTheorem41(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 2 + rng.Intn(40)
		c := randSeries(rng, l+1)
		ext := FitSlice(c[:l])
		inc := Append(ext, l, c[l])
		d1 := math.Abs(inc.B - ext.B)
		d2 := math.Abs(inc.Eval(l-1) - ext.Eval(l-1))
		d3 := math.Abs(c[l] - inc.Eval(l))
		d4 := math.Abs(inc.Eval(l) - ext.Eval(l))
		d5 := math.Abs(ext.Eval(l) - c[l])
		return d4 >= d1-1e-9 && d4 >= d2-1e-9 && almostEq(d5, d3+d4, 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistSMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		l := 1 + rng.Intn(50)
		q := Line{A: rng.NormFloat64(), B: rng.NormFloat64() * 5}
		c := Line{A: rng.NormFloat64(), B: rng.NormFloat64() * 5}
		var want float64
		for t2 := 0; t2 < l; t2++ {
			d := q.Eval(t2) - c.Eval(t2)
			want += d * d
		}
		if got := DistS(q, c, l); !almostEq(got, want, 1e-9) {
			t.Fatalf("DistS = %v, want %v", got, want)
		}
	}
}

func TestGetMax(t *testing.T) {
	f := SlicePoints(ts.Series{0, 10, 20})
	g := SlicePoints(ts.Series{1, 10, 25})
	h := SlicePoints(ts.Series{0, 12, 20})
	if got := GetMax([]int{0, 1, 2}, f, g, h); got != 5 {
		t.Fatalf("GetMax = %v, want 5", got)
	}
	if got := GetMax([]int{0}, f, g, h); got != 1 {
		t.Fatalf("GetMax = %v, want 1", got)
	}
	if got := GetMax(nil, f, g, h); got != 0 {
		t.Fatalf("GetMax(nil) = %v, want 0", got)
	}
}

func TestExactMaxDeviation(t *testing.T) {
	c := ts.Series{0, 1, 5, 3}
	ln := Line{A: 1, B: 0} // reconstruction 0,1,2,3
	if got := ExactMaxDeviation(c, ln); got != 3 {
		t.Fatalf("ExactMaxDeviation = %v, want 3", got)
	}
}

func TestBetaBoundsNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		l := 2 + rng.Intn(20)
		c := randSeries(rng, l+1)
		ext := FitSlice(c[:l])
		inc := Append(ext, l, c[l])
		beta, maxD := BetaInit(c, inc, ext, l, 0)
		if beta < 0 || maxD < 0 {
			t.Fatal("negative beta")
		}
		l1 := 1 + rng.Intn(10)
		l2 := 1 + rng.Intn(10)
		cm := randSeries(rng, l1+l2)
		left := FitSlice(cm[:l1])
		right := FitSlice(cm[l1:])
		merged := Merge(left, l1, right, l2)
		if BetaMerge(cm, merged, left, l1, right, l2) < 0 {
			t.Fatal("negative merge beta")
		}
		bl, br := BetaSplit(cm, merged, left, l1, right, l2)
		if bl < 0 || br < 0 {
			t.Fatal("negative split beta")
		}
	}
}

// Theorem 4.2 (empirical form, as qualified by the paper): on typical data
// the merge upper bound dominates the true segment max deviation.
func TestBetaMergeUsuallyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	violations, total := 0, 0
	for trial := 0; trial < 500; trial++ {
		l1 := 2 + rng.Intn(15)
		l2 := 2 + rng.Intn(15)
		c := randSeries(rng, l1+l2)
		left := FitSlice(c[:l1])
		right := FitSlice(c[l1:])
		merged := Merge(left, l1, right, l2)
		beta := BetaMerge(c, merged, left, l1, right, l2)
		eps := ExactMaxDeviation(c, merged)
		total++
		if beta < eps {
			violations++
		}
	}
	// The paper proves the bound only under conditions (Theorem 4.3) and
	// reports no violations in practice; allow a small slack here.
	if float64(violations) > 0.05*float64(total) {
		t.Fatalf("beta bound violated too often: %d/%d", violations, total)
	}
}

// PointFn supplies the value of a (real or reconstructed) segment at a local
// 0-based position. Algorithm 4.1's get_max is expressed over three such
// suppliers so the same routine serves original points and line evaluations.
type PointFn func(t int) float64

// SlicePoints adapts a slice of original points to a PointFn.
func SlicePoints(c ts.Series) PointFn { return func(t int) float64 { return c[t] } }

// GetMax is Algorithm 4.1: the maximum absolute pairwise difference between
// the three suppliers at the given local positions.
func GetMax(ids []int, f, g, h PointFn) float64 {
	var m float64
	for _, k := range ids {
		a, b, c := f(k), g(k), h(k)
		if d := math.Abs(a - b); d > m {
			m = d
		}
		if d := math.Abs(a - c); d > m {
			m = d
		}
		if d := math.Abs(b - c); d > m {
			m = d
		}
	}
	return m
}
