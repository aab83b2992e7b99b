package reduce

import (
	"math"
	"testing"

	"sapla/internal/ts"
)

// pathological inputs every reducer must survive with a finite, full-length
// reconstruction.
func pathologicalSeries() map[string]ts.Series {
	alternating := make(ts.Series, 64)
	for i := range alternating {
		if i%2 == 0 {
			alternating[i] = 1
		} else {
			alternating[i] = -1
		}
	}
	huge := make(ts.Series, 64)
	for i := range huge {
		huge[i] = 1e15 * math.Sin(float64(i))
	}
	tiny := make(ts.Series, 64)
	for i := range tiny {
		tiny[i] = 1e-300 * float64(i%5)
	}
	monotone := make(ts.Series, 64)
	for i := range monotone {
		monotone[i] = float64(i) * float64(i)
	}
	constant := make(ts.Series, 64)
	for i := range constant {
		constant[i] = -7.5
	}
	step := make(ts.Series, 64)
	for i := 32; i < 64; i++ {
		step[i] = 1e6
	}
	return map[string]ts.Series{
		"alternating": alternating,
		"huge":        huge,
		"denormal":    tiny,
		"quadratic":   monotone,
		"constant":    constant,
		"bigstep":     step,
	}
}

func TestReducersSurvivePathologicalInputs(t *testing.T) {
	for name, series := range pathologicalSeries() {
		for _, meth := range Baselines() {
			t.Run(meth.Name()+"/"+name, func(t *testing.T) {
				rep, err := meth.Reduce(series, 12)
				if err != nil {
					t.Fatalf("%v", err)
				}
				rec := rep.Reconstruct()
				if len(rec) != len(series) {
					t.Fatalf("length %d", len(rec))
				}
				for i, v := range rec {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("non-finite value at %d: %v", i, v)
					}
				}
			})
		}
	}
}

func TestReducersMinimalLengths(t *testing.T) {
	// The shortest series each budget permits.
	for _, meth := range Baselines() {
		var minLen int
		switch meth.Name() {
		case "APLA":
			minLen = 4 // N = 4 segments of ≥ 1 point
		case "APCA", "PLA":
			minLen = 6
		default:
			minLen = 12
		}
		c := make(ts.Series, minLen)
		for i := range c {
			c[i] = float64(i * i % 7)
		}
		rep, err := meth.Reduce(c, 12)
		if err != nil {
			t.Fatalf("%s at n=%d: %v", meth.Name(), minLen, err)
		}
		if len(rep.Reconstruct()) != minLen {
			t.Fatalf("%s: bad reconstruction length", meth.Name())
		}
	}
}

func TestReducersIdempotent(t *testing.T) {
	// Reducing the same series twice yields identical coefficients
	// (all methods are deterministic).
	c := randWalk(99, 200)
	for _, meth := range Baselines() {
		a, err := meth.Reduce(c, 18)
		if err != nil {
			t.Fatal(err)
		}
		b, err := meth.Reduce(c, 18)
		if err != nil {
			t.Fatal(err)
		}
		ca, cb := a.Coeffs(), b.Coeffs()
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("%s: nondeterministic", meth.Name())
			}
		}
	}
}

func TestReducersDoNotMutateInput(t *testing.T) {
	c := randWalk(7, 100)
	orig := c.Clone()
	for _, meth := range Baselines() {
		if _, err := meth.Reduce(c, 12); err != nil {
			t.Fatal(err)
		}
		for i := range c {
			if c[i] != orig[i] {
				t.Fatalf("%s mutated its input at %d", meth.Name(), i)
			}
		}
	}
}

// Scale equivariance: scaling the input scales linear-reconstruction methods'
// reconstructions accordingly (SAX is quantised, CHEBY nearly so).
func TestReducersScaleEquivariance(t *testing.T) {
	c := randWalk(8, 120)
	scaled := make(ts.Series, len(c))
	for i := range c {
		scaled[i] = 10 * c[i]
	}
	for _, meth := range Baselines() {
		switch meth.Name() {
		case "SAX": // symbolic: exact equivariance does not hold
			continue
		}
		r1, err := meth.Reduce(c, 12)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := meth.Reduce(scaled, 12)
		if err != nil {
			t.Fatal(err)
		}
		a, b := r1.Reconstruct(), r2.Reconstruct()
		for i := range a {
			if math.Abs(10*a[i]-b[i]) > 1e-6*(1+math.Abs(b[i])) {
				// Adaptive methods may pick different endpoints under
				// scaling only if tie-breaks differ; deviations must still
				// be proportional.
				d1 := ts.MaxDeviation(c, a)
				d2 := ts.MaxDeviation(scaled, b)
				if math.Abs(10*d1-d2) > 1e-3*(1+d2) {
					t.Fatalf("%s: scale equivariance broken: dev %v vs %v", meth.Name(), d1, d2)
				}
				break
			}
		}
	}
}

func TestAPCAHaarRoundTrip(t *testing.T) {
	// The orthonormal Haar transform must invert exactly.
	c := randWalk(9, 128)
	coefs := haar(padPow2(c))
	back := invHaar(coefs)
	for i := range c {
		if math.Abs(back[i]-c[i]) > 1e-9 {
			t.Fatalf("Haar round trip broke at %d", i)
		}
	}
}

func TestAPCAKeepLargest(t *testing.T) {
	coefs := []float64{5, -1, 3, 0.5, -4, 2}
	keepLargest(coefs, 3)
	var nonzero int
	for _, v := range coefs {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 3 || coefs[0] != 5 || coefs[4] != -4 || coefs[2] != 3 {
		t.Fatalf("keepLargest = %v", coefs)
	}
	// k ≥ len keeps everything.
	all := []float64{1, 2}
	keepLargest(all, 5)
	if all[0] != 1 || all[1] != 2 {
		t.Fatal("keepLargest with large k mutated input")
	}
}

func TestSegmentsForValidation(t *testing.T) {
	if _, err := segmentsFor("X", 1, 100, 2, 1); err == nil {
		t.Fatal("budget below per-segment cost accepted")
	}
	if _, err := segmentsFor("X", 40, 10, 2, 2); err == nil {
		t.Fatal("too many segments accepted")
	}
	n, err := segmentsFor("X", 12, 100, 3, 2)
	if err != nil || n != 4 {
		t.Fatalf("segmentsFor = %d, %v", n, err)
	}
}
