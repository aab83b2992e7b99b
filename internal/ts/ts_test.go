package ts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		s       Series
		wantErr bool
	}{
		{"empty", Series{}, true},
		{"ok", Series{1, 2, 3}, false},
		{"nan", Series{1, math.NaN(), 3}, true},
		{"posinf", Series{1, math.Inf(1)}, true},
		{"neginf", Series{math.Inf(-1)}, true},
		{"single", Series{42}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestClone(t *testing.T) {
	s := Series{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Clone did not copy")
	}
}

func TestEuclidean(t *testing.T) {
	a := Series{0, 0, 0}
	b := Series{3, 4, 0}
	d, err := Euclidean(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 5, 1e-12) {
		t.Fatalf("Euclidean = %v, want 5", d)
	}
	if _, err := Euclidean(a, Series{1}); err != ErrLengthMismatch {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}

func TestEuclideanSqPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EuclideanSq(Series{1}, Series{1, 2})
}

func TestMaxDeviationAndSumAbs(t *testing.T) {
	c := Series{1, 2, 3, 4}
	r := Series{1, 0, 3, 7}
	if got := MaxDeviation(c, r); got != 3 {
		t.Fatalf("MaxDeviation = %v, want 3", got)
	}
	if got := SumAbsDeviation(c, r); got != 5 {
		t.Fatalf("SumAbsDeviation = %v, want 5", got)
	}
}

func TestStats(t *testing.T) {
	s := Series{2, 4, 4, 4, 5, 5, 7, 9}
	if got := s.Mean(); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := s.Std(); !almostEq(got, 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", got)
	}
	lo, hi := s.MinMax()
	if lo != 2 || hi != 9 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Std() != 0 {
		t.Fatal("empty stats should be 0")
	}
	lo, hi := s.MinMax()
	if lo != 0 || hi != 0 {
		t.Fatal("empty MinMax should be 0,0")
	}
}

func TestZNormalize(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	z := s.ZNormalize()
	if !almostEq(z.Mean(), 0, 1e-12) {
		t.Fatalf("mean after znorm = %v", z.Mean())
	}
	if !almostEq(z.Std(), 1, 1e-12) {
		t.Fatalf("std after znorm = %v", z.Std())
	}
}

func TestZNormalizeConstant(t *testing.T) {
	s := Series{7, 7, 7}
	z := s.ZNormalize()
	for _, v := range z {
		if v != 0 {
			t.Fatalf("constant series should normalise to zeros, got %v", z)
		}
	}
}

func TestPrefixWindow(t *testing.T) {
	s := Series{3, 1, 4, 1, 5, 9, 2, 6}
	p := NewPrefix(s)
	if p.Len() != len(s) {
		t.Fatalf("Len = %d", p.Len())
	}
	for lo := 0; lo < len(s); lo++ {
		for hi := lo + 1; hi <= len(s); hi++ {
			l, s0, s1, s2 := p.Window(lo, hi)
			var w0, w1, w2 float64
			for t2 := lo; t2 < hi; t2++ {
				w0 += s[t2]
				w1 += float64(t2-lo) * s[t2]
				w2 += s[t2] * s[t2]
			}
			if l != hi-lo || !almostEq(s0, w0, 1e-12) || !almostEq(s1, w1, 1e-12) || !almostEq(s2, w2, 1e-12) {
				t.Fatalf("window [%d,%d): got %d,%v,%v,%v want %v,%v,%v", lo, hi, l, s0, s1, s2, w0, w1, w2)
			}
		}
	}
}

func TestPrefixWindowPanics(t *testing.T) {
	p := NewPrefix(Series{1, 2, 3})
	for _, c := range [][2]int{{-1, 2}, {0, 4}, {2, 2}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("window %v should panic", c)
				}
			}()
			p.Window(c[0], c[1])
		}()
	}
}

func TestPrefixSum(t *testing.T) {
	s := Series{1, 2, 3, 4}
	p := NewPrefix(s)
	if got := p.Sum(1, 3); got != 5 {
		t.Fatalf("Sum(1,3) = %v, want 5", got)
	}
	if got := p.Sum(0, 4); got != 10 {
		t.Fatalf("Sum(0,4) = %v, want 10", got)
	}
}

// Property: Euclidean distance satisfies the triangle inequality and
// symmetry on random series.
func TestEuclideanProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		a, b, c := make(Series, n), make(Series, n), make(Series, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		dab, _ := Euclidean(a, b)
		dba, _ := Euclidean(b, a)
		dac, _ := Euclidean(a, c)
		dcb, _ := Euclidean(c, b)
		return almostEq(dab, dba, 1e-12) && dab <= dac+dcb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: z-normalisation is idempotent up to numerical tolerance.
func TestZNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(64)
		s := make(Series, n)
		for i := range s {
			s[i] = rng.NormFloat64()*10 + 5
		}
		z := s.ZNormalize()
		zz := z.ZNormalize()
		for i := range z {
			if !almostEq(z[i], zz[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// EuclideanSqAbandon is EuclideanSq with early abandoning: it adds the same
// terms in the same order, and gives up once the running sum exceeds limit.
// When it completes (ok) the sum is bit-identical to EuclideanSq(a, b) —
// whatever its relation to limit. When it abandons, the partial sum it returns
// already exceeds limit, and so does the full sum: every term is non-negative
// and floating-point addition is monotone. It is the one-candidate oracle a
// RefineGroup's plain lanes are tested against. It panics if the lengths
// differ.
func EuclideanSqAbandon(a, b Series, limit float64) (sum float64, ok bool) {
	if len(a) != len(b) {
		panic(ErrLengthMismatch)
	}
	i := 0
	for ; i+abandonStride <= len(a); i += abandonStride {
		x, y := a[i:i+abandonStride], b[i:i+abandonStride]
		for j := range x {
			d := x[j] - y[j]
			sum += d * d
		}
		if sum > limit {
			return sum, false
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum, true
}

// checkAbandon holds EuclideanSqAbandon to its contract against the plain
// kernel: a completed sum is bit-identical, an abandoned one proves that the
// full sum exceeds the limit.
func checkAbandon(t *testing.T, a, b Series, limit float64) {
	t.Helper()
	full := EuclideanSq(a, b)
	sum, ok := EuclideanSqAbandon(a, b, limit)
	if ok {
		if math.Float64bits(sum) != math.Float64bits(full) {
			t.Fatalf("n=%d limit=%g: completed with %v, EuclideanSq says %v", len(a), limit, sum, full)
		}
		return
	}
	if !(sum > limit) || !(full > limit) || sum > full {
		t.Fatalf("n=%d limit=%g: abandoned at %v with full sum %v", len(a), limit, sum, full)
	}
}

// abandonCase derives one (a, b, limit) triple from a seed: lengths straddle
// the check stride, and the limit lands below, inside and above the range of
// partial sums, plus the edge values a k-NN bound takes (0 and +Inf).
func abandonCase(seed int64, n int, scale float64) (a, b Series, limit float64) {
	rng := rand.New(rand.NewSource(seed))
	a, b = make(Series, n), make(Series, n)
	for i := range a {
		a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	switch rng.Intn(6) {
	case 0:
		limit = 0
	case 1:
		limit = math.Inf(1)
	default:
		limit = scale * EuclideanSq(a, b)
	}
	return a, b, limit
}

func TestEuclideanSqAbandon(t *testing.T) {
	abandoned := 0
	for seed := int64(0); seed < 2000; seed++ {
		n := int(seed % 70) // 0, below one stride, exact multiples, ragged tails
		a, b, limit := abandonCase(seed, n, float64(seed%13)/8)
		checkAbandon(t, a, b, limit)
		if _, ok := EuclideanSqAbandon(a, b, limit); !ok {
			abandoned++
		}
	}
	if abandoned == 0 {
		t.Fatal("no case abandoned: the property was only checked on completed sums")
	}
	// The limit is a ceiling, not a target: a sum equal to it completes.
	a, b := make(Series, 32), make(Series, 32)
	a[0] = 3
	if sum, ok := EuclideanSqAbandon(a, b, 9); !ok || sum != 9 {
		t.Fatalf("sum == limit: got (%v, %v), want (9, true)", sum, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	EuclideanSqAbandon(Series{1}, Series{1, 2}, 1)
}

func FuzzEuclideanSqAbandon(f *testing.F) {
	f.Add(int64(1), uint16(256), 0.5)
	f.Add(int64(2), uint16(16), 1.0)
	f.Add(int64(3), uint16(17), 0.0)
	f.Add(int64(4), uint16(0), 2.0)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, scale float64) {
		if math.IsNaN(scale) {
			t.Skip()
		}
		a, b, limit := abandonCase(seed, int(n%2048), scale)
		checkAbandon(t, a, b, limit)
	})
}

// SumAbsDeviation returns the total absolute pointwise difference
// ε(C, Č) = Σ |c_t − č_t| (paper Table 2). It panics on length mismatch.
func SumAbsDeviation(c, r Series) float64 {
	if len(c) != len(r) {
		panic(ErrLengthMismatch)
	}
	var sum float64
	for i := range c {
		sum += math.Abs(c[i] - r[i])
	}
	return sum
}
