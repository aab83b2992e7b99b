package segment

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sapla/internal/ts"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func randSeries(rng *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	for i := range s {
		s[i] = rng.NormFloat64()*10 + rng.Float64()
	}
	return s
}

func linesEq(t *testing.T, got, want Line, tol float64, what string) {
	t.Helper()
	if !almostEq(got.A, want.A, tol) || !almostEq(got.B, want.B, tol) {
		t.Fatalf("%s: got %+v, want %+v", what, got, want)
	}
}

func TestFitKnownValues(t *testing.T) {
	// Perfect line c_t = 2t + 3.
	c := ts.Series{3, 5, 7, 9, 11}
	ln := FitSlice(c)
	linesEq(t, ln, Line{A: 2, B: 3}, 1e-12, "perfect line")

	// Single point.
	linesEq(t, FitSlice(ts.Series{42}), Line{A: 0, B: 42}, 1e-12, "single point")

	// Two points are interpolated exactly.
	linesEq(t, FitSlice(ts.Series{1, 4}), Line{A: 3, B: 1}, 1e-12, "two points")
}

func TestFitMatchesEq1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		c := randSeries(rng, n)
		linesEq(t, FitSlice(c), Eq1(c), 1e-9, "FitSlice vs Eq1")
	}
}

func TestFitWindowMatchesFitSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randSeries(rng, 64)
	p := ts.NewPrefix(s)
	for lo := 0; lo < len(s); lo++ {
		for hi := lo + 1; hi <= len(s); hi++ {
			linesEq(t, FitWindow(p, lo, hi), FitSlice(s[lo:hi]), 1e-9, "FitWindow vs FitSlice")
		}
	}
}

func TestFitPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fit(0, 0, 0)
}

func TestStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		c := randSeries(rng, n)
		var w0, w1 float64
		for ti, v := range c {
			w0 += v
			w1 += float64(ti) * v
		}
		ln := FitSlice(c)
		s0, s1 := ln.Stats(n)
		if !almostEq(s0, w0, 1e-9) || !almostEq(s1, w1, 1e-9) {
			t.Fatalf("Stats(%d) = %v,%v want %v,%v", n, s0, s1, w0, w1)
		}
	}
}

func TestAppendMatchesDirectFit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		c := randSeries(rng, n+1)
		ln := FitSlice(c[:n])
		got := Append(ln, n, c[n])
		linesEq(t, got, FitSlice(c), 1e-9, "Append")
		// And the paper's literal Eq. (2) agrees.
		if n >= 2 {
			linesEq(t, Eq2Increment(ln, n, c[n]), FitSlice(c), 1e-9, "Eq2Increment")
		}
	}
}

func TestRemoveLastMatchesDirectFit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		c := randSeries(rng, n)
		ln := FitSlice(c)
		got := RemoveLast(ln, n, c[n-1])
		linesEq(t, got, FitSlice(c[:n-1]), 1e-9, "RemoveLast")
		if n >= 3 {
			linesEq(t, Eq9RemoveLast(ln, n, c[n-1]), FitSlice(c[:n-1]), 1e-9, "Eq9RemoveLast")
		}
	}
}

func TestPrependMatchesDirectFit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		c := randSeries(rng, n+1)
		ln := FitSlice(c[1:])
		got := Prepend(ln, n, c[0])
		linesEq(t, got, FitSlice(c), 1e-9, "Prepend")
		if n >= 2 {
			linesEq(t, Eq10Prepend(ln, n, c[0]), FitSlice(c), 1e-9, "Eq10Prepend")
		}
	}
}

func TestRemoveFirstMatchesDirectFit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		c := randSeries(rng, n)
		ln := FitSlice(c)
		got := RemoveFirst(ln, n, c[0])
		linesEq(t, got, FitSlice(c[1:]), 1e-9, "RemoveFirst")
		if n >= 3 {
			linesEq(t, Eq11RemoveFirst(ln, n, c[0]), FitSlice(c[1:]), 1e-9, "Eq11RemoveFirst")
		}
	}
}

func TestMergeMatchesDirectFit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		l1 := 1 + rng.Intn(20)
		l2 := 1 + rng.Intn(20)
		c := randSeries(rng, l1+l2)
		left := FitSlice(c[:l1])
		right := FitSlice(c[l1:])
		linesEq(t, Merge(left, l1, right, l2), FitSlice(c), 1e-9, "Merge")
		if l1 >= 2 && l2 >= 2 {
			linesEq(t, Eq34Merge(left, l1, right, l2), FitSlice(c), 1e-9, "Eq34Merge")
		}
	}
}

func TestSplitInvertsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		l1 := 1 + rng.Intn(20)
		l2 := 1 + rng.Intn(20)
		c := randSeries(rng, l1+l2)
		merged := FitSlice(c)
		left := FitSlice(c[:l1])
		right := FitSlice(c[l1:])
		linesEq(t, SplitLeft(merged, l1+l2, right, l2), left, 1e-8, "SplitLeft")
		linesEq(t, SplitRight(merged, l1+l2, left, l1), right, 1e-8, "SplitRight")
	}
}

func TestEq78MatchesSplitRight(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 200; trial++ {
		l1 := 2 + rng.Intn(20)
		l2 := 2 + rng.Intn(20)
		c := randSeries(rng, l1+l2)
		merged := FitSlice(c)
		left := FitSlice(c[:l1])
		want := FitSlice(c[l1:])
		linesEq(t, Eq78SplitRight(merged, l1+l2, left, l1), want, 1e-8, "Eq78SplitRight")
	}
}

func TestShift(t *testing.T) {
	ln := Line{A: 2, B: 1}
	sh := ln.Shift(3)
	if sh.A != 2 || sh.B != 7 {
		t.Fatalf("Shift = %+v", sh)
	}
	// Shifted line agrees with the original at corresponding positions.
	for t2 := 0; t2 < 5; t2++ {
		if !almostEq(sh.Eval(t2), ln.Eval(t2+3), 1e-12) {
			t.Fatal("Shift evaluation mismatch")
		}
	}
}

func TestReconstruct(t *testing.T) {
	ln := Line{A: 1, B: 0}
	got := ln.Reconstruct(nil, 4)
	want := ts.Series{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Reconstruct = %v", got)
		}
	}
}

// Property: least-squares residuals sum to zero (Lemma A.1 / Eq. (22)).
func TestResidualsSumToZero(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		c := randSeries(rng, n)
		ln := FitSlice(c)
		var sum float64
		for ti, v := range c {
			sum += v - ln.Eval(ti)
		}
		return math.Abs(sum) < 1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the least-squares fit minimises SSE against perturbed lines.
func TestFitIsLeastSquares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		c := randSeries(rng, n)
		ln := FitSlice(c)
		sse := func(l Line) float64 {
			var s float64
			for ti, v := range c {
				d := v - l.Eval(ti)
				s += d * d
			}
			return s
		}
		best := sse(ln)
		for trial := 0; trial < 10; trial++ {
			pert := Line{A: ln.A + rng.NormFloat64()*0.1, B: ln.B + rng.NormFloat64()*0.1}
			if sse(pert) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The inverse moves below are the paper's remaining O(1) refit formulas in
// sufficient-statistics form (Eqs. (5)–(11)); the reducer refits windows
// from prefix sums instead, so they live here as oracles for the verbatim
// recurrences of paper_eqs_test.go.

// RemoveLast returns the least-squares fit after removing the last point
// cLast from a segment of length l fitted by ln (paper Eq. (9), O(1)).
func RemoveLast(ln Line, l int, cLast float64) Line {
	if l < 2 {
		panic("segment: RemoveLast on segment of length < 2")
	}
	s0, s1 := ln.Stats(l)
	return Fit(l-1, s0-cLast, s1-float64(l-1)*cLast)
}

// Prepend returns the least-squares fit after prepending one point cFirst to
// a segment of length l fitted by ln (paper Eq. (10), O(1)). Local time
// shifts so the new point is at t = 0.
func Prepend(ln Line, l int, cFirst float64) Line {
	s0, s1 := ln.Stats(l)
	// Old points move from local t to t+1: s1' = s1 + s0; new point adds 0·c.
	return Fit(l+1, s0+cFirst, s1+s0)
}

// RemoveFirst returns the least-squares fit after removing the first point
// cFirst from a segment of length l fitted by ln (paper Eq. (11), O(1)).
// Local time shifts so the old t = 1 becomes t = 0.
func RemoveFirst(ln Line, l int, cFirst float64) Line {
	if l < 2 {
		panic("segment: RemoveFirst on segment of length < 2")
	}
	s0, s1 := ln.Stats(l)
	s0 -= cFirst
	// Remaining points move from local t to t−1: s1' = (s1 − 0·cFirst) − s0'.
	return Fit(l-1, s0, s1-s0)
}

// SplitLeft recovers the left sub-segment's least-squares fit from the fit of
// the merged segment and the right sub-segment's fit (paper Eqs. (5)–(6),
// O(1)). merged covers L points, right covers the last l2 of them.
func SplitLeft(merged Line, L int, right Line, l2 int) Line {
	l1 := L - l2
	if l1 < 1 {
		panic("segment: SplitLeft with empty left side")
	}
	s0m, s1m := merged.Stats(L)
	s0r, s1r := right.Stats(l2)
	return Fit(l1, s0m-s0r, s1m-(s1r+float64(l1)*s0r))
}

// SplitRight recovers the right sub-segment's least-squares fit from the fit
// of the merged segment and the left sub-segment's fit (paper Eqs. (7)–(8),
// O(1)). merged covers L points, left covers the first l1 of them. The
// returned line uses local time starting at the right sub-segment's start.
func SplitRight(merged Line, L int, left Line, l1 int) Line {
	l2 := L - l1
	if l2 < 1 {
		panic("segment: SplitRight with empty right side")
	}
	s0m, s1m := merged.Stats(L)
	s0l, s1l := left.Stats(l1)
	s0r := s0m - s0l
	s1r := s1m - s1l - float64(l1)*s0r
	return Fit(l2, s0r, s1r)
}
