package reduce

import (
	"math"
	"math/rand"
	"testing"

	"sapla/internal/repr"
	"sapla/internal/ts"
)

// paperSeries is the 20-point example of Figures 1/5/6/8.
var paperSeries = ts.Series{7, 8, 20, 15, 18, 8, 8, 15, 10, 1, 4, 3, 3, 5, 4, 9, 2, 9, 10, 10}

func randWalk(seed int64, n int) ts.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(ts.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

func maxDev(c ts.Series, r repr.Representation) float64 {
	return ts.MaxDeviation(c, r.Reconstruct())
}

func TestAllMethodsBasicContract(t *testing.T) {
	c := randWalk(1, 128)
	for _, m := range Baselines() {
		t.Run(m.Name(), func(t *testing.T) {
			rep, err := m.Reduce(c, 12)
			if err != nil {
				t.Fatal(err)
			}
			rec := rep.Reconstruct()
			if len(rec) != len(c) {
				t.Fatalf("reconstruction length %d != %d", len(rec), len(c))
			}
			if rep.Len() != len(c) {
				t.Fatalf("Len() = %d", rep.Len())
			}
			if rep.Segments() < 1 {
				t.Fatal("no segments")
			}
			if len(rep.Coeffs()) == 0 {
				t.Fatal("no coefficients")
			}
			for i, v := range rec {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("bad reconstruction value at %d: %v", i, v)
				}
			}
		})
	}
}

func TestAllMethodsRejectBadInput(t *testing.T) {
	for _, m := range Baselines() {
		if _, err := m.Reduce(ts.Series{}, 12); err == nil {
			t.Fatalf("%s accepted empty series", m.Name())
		}
		if _, err := m.Reduce(ts.Series{1, math.NaN()}, 12); err == nil {
			t.Fatalf("%s accepted NaN series", m.Name())
		}
		if _, err := m.Reduce(randWalk(2, 32), 0); err == nil {
			t.Fatalf("%s accepted zero budget", m.Name())
		}
	}
}

func TestSegmentCountsFollowTable1(t *testing.T) {
	c := randWalk(3, 120)
	const m = 12
	want := map[string]int{
		"APLA":  4,  // M/3
		"APCA":  6,  // M/2
		"PLA":   6,  // M/2
		"PAA":   12, // M
		"PAALM": 12,
		"CHEBY": 12,
		"SAX":   12,
	}
	for _, meth := range Baselines() {
		rep, err := meth.Reduce(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Segments(); got != want[meth.Name()] {
			t.Errorf("%s segments = %d, want %d", meth.Name(), got, want[meth.Name()])
		}
	}
}

func TestPLAEqualFrames(t *testing.T) {
	c := randWalk(4, 100)
	rep, err := NewPLA().Reduce(c, 8) // 4 segments of 25
	if err != nil {
		t.Fatal(err)
	}
	lin := rep.(repr.Linear)
	for i, s := range lin.Segs {
		if want := (i+1)*25 - 1; s.R != want {
			t.Fatalf("segment %d endpoint = %d, want %d", i, s.R, want)
		}
	}
}

func TestPLAPerfectLine(t *testing.T) {
	c := make(ts.Series, 40)
	for i := range c {
		c[i] = 3*float64(i) - 7
	}
	rep, err := NewPLA().Reduce(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDev(c, rep); d > 1e-9 {
		t.Fatalf("PLA should reconstruct a line exactly, max dev %v", d)
	}
}

func TestPAAKnownValues(t *testing.T) {
	c := ts.Series{1, 3, 5, 7, 9, 11}
	rep, err := NewPAA().Reduce(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	vals := rep.(repr.PAA).Values
	want := []float64{2, 6, 10}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("PAA values = %v", vals)
		}
	}
}

func TestPAAConstantIsExact(t *testing.T) {
	c := make(ts.Series, 64)
	for i := range c {
		c[i] = 5
	}
	rep, _ := NewPAA().Reduce(c, 8)
	if d := maxDev(c, rep); d != 0 {
		t.Fatalf("constant series should be exact, dev %v", d)
	}
}

func TestAPCASegmentsAndValues(t *testing.T) {
	// Step function: APCA should find the step boundary exactly.
	c := make(ts.Series, 64)
	for i := range c {
		if i >= 32 {
			c[i] = 10
		}
	}
	rep, err := NewAPCA().Reduce(c, 4) // 2 segments
	if err != nil {
		t.Fatal(err)
	}
	ap := rep.(repr.Constant)
	if len(ap.Segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(ap.Segs))
	}
	if ap.Segs[0].R != 31 {
		t.Fatalf("step boundary = %d, want 31", ap.Segs[0].R)
	}
	if ap.Segs[0].V != 0 || ap.Segs[1].V != 10 {
		t.Fatalf("values = %v, %v", ap.Segs[0].V, ap.Segs[1].V)
	}
	if d := maxDev(c, rep); d != 0 {
		t.Fatalf("step should be exact, dev %v", d)
	}
}

func TestAPCANonPow2Length(t *testing.T) {
	c := randWalk(5, 100) // not a power of two
	rep, err := NewAPCA().Reduce(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 100 || len(rep.Reconstruct()) != 100 {
		t.Fatal("length mishandled")
	}
	if err := rep.(repr.Constant).ToLinear().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAPCAExactSegmentCount(t *testing.T) {
	for _, n := range []int{33, 64, 100, 257} {
		c := randWalk(int64(n), n)
		for _, m := range []int{4, 8, 12, 24} {
			rep, err := NewAPCA().Reduce(c, m)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Segments(); got != m/2 {
				t.Fatalf("n=%d m=%d: segments = %d, want %d", n, m, got, m/2)
			}
		}
	}
}

func TestAPLAOptimalOnPiecewiseLine(t *testing.T) {
	// Two perfect linear pieces: APLA with 2 segments must be exact.
	c := make(ts.Series, 40)
	for i := 0; i < 20; i++ {
		c[i] = float64(i)
	}
	for i := 20; i < 40; i++ {
		c[i] = 40 - float64(i)
	}
	rep, err := NewAPLA().Reduce(c, 6) // 2 segments
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDev(c, rep); d > 1e-9 {
		t.Fatalf("APLA should be exact on 2 linear pieces, dev %v", d)
	}
	lin := rep.(repr.Linear)
	if lin.Segs[0].R != 19 {
		t.Fatalf("break at %d, want 19", lin.Segs[0].R)
	}
}

func TestAPLABeatsPLAOnMaxDevSum(t *testing.T) {
	// APLA optimises the segmentation; with the same segment count its sum
	// of segment max deviations can never exceed PLA's equal-length cut.
	c := paperSeries
	apla, err := NewAPLA().Reduce(c, 6) // 2 segments
	if err != nil {
		t.Fatal(err)
	}
	pla4 := repr.FitLinear(c, []int{9, 19}) // PLA-style equal cut, 2 segments
	sum := func(r repr.Linear) float64 {
		var s float64
		rec := r.Reconstruct()
		start := 0
		for i := range r.Segs {
			var m float64
			for t2 := start; t2 <= r.Segs[i].R; t2++ {
				if d := math.Abs(c[t2] - rec[t2]); d > m {
					m = d
				}
			}
			s += m
			start = r.Segs[i].R + 1
		}
		return s
	}
	if sum(apla.(repr.Linear)) > sum(pla4)+1e-9 {
		t.Fatalf("APLA sum %v worse than equal cut %v", sum(apla.(repr.Linear)), sum(pla4))
	}
}

func TestCHEBYLowOrderExact(t *testing.T) {
	// A linear function is representable by T_0 and T_1 exactly
	// (up to the nearest-sample quadrature error, which vanishes for a line
	// only approximately; allow a generous tolerance).
	n := 256
	c := make(ts.Series, n)
	for i := range c {
		c[i] = 2*repr.XAt(n, i) + 5
	}
	rep, err := NewCHEBY().Reduce(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxDev(c, rep); d > 0.1 {
		t.Fatalf("CHEBY on a line: max dev %v", d)
	}
}

func TestCHEBYBudgetClamp(t *testing.T) {
	c := randWalk(7, 16)
	rep, err := NewCHEBY().Reduce(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments() > 16 {
		t.Fatalf("coefficients = %d, want ≤ n", rep.Segments())
	}
}

func TestPAALMSmootherThanPAA(t *testing.T) {
	c := randWalk(8, 256)
	paaRep, _ := NewPAA().Reduce(c, 16)
	lmRep, _ := NewPAALM().Reduce(c, 16)
	pv := paaRep.(repr.PAA).Values
	lv := lmRep.(repr.PAA).Values
	rough := func(v []float64) float64 {
		var s float64
		for i := 1; i < len(v); i++ {
			d := v[i] - v[i-1]
			s += d * d
		}
		return s
	}
	if rough(lv) >= rough(pv) {
		t.Fatalf("PAALM should be smoother: %v vs %v", rough(lv), rough(pv))
	}
}

func TestPAALMSingleFrame(t *testing.T) {
	c := randWalk(9, 32)
	rep, err := NewPAALM().Reduce(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := rep.(repr.PAA).Values
	if len(v) != 1 || math.Abs(v[0]-c.Mean()) > 1e-9 {
		t.Fatalf("single frame should be the mean: %v vs %v", v, c.Mean())
	}
}

func TestSAXSymbolsInRange(t *testing.T) {
	c := randWalk(10, 512)
	rep, err := NewSAX().Reduce(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	w := rep.(repr.Word)
	if w.Alphabet != DefaultAlphabet {
		t.Fatalf("alphabet = %d", w.Alphabet)
	}
	for _, s := range w.Symbols {
		if s < 0 || s >= w.Alphabet {
			t.Fatalf("symbol %d out of range", s)
		}
	}
}

func TestSAXMonotoneSeries(t *testing.T) {
	// A strongly increasing series should produce non-decreasing symbols.
	c := make(ts.Series, 64)
	for i := range c {
		c[i] = float64(i)
	}
	rep, _ := NewSAX().Reduce(c, 8)
	w := rep.(repr.Word)
	for i := 1; i < len(w.Symbols); i++ {
		if w.Symbols[i] < w.Symbols[i-1] {
			t.Fatalf("symbols not monotone: %v", w.Symbols)
		}
	}
	if w.Symbols[0] == w.Symbols[len(w.Symbols)-1] {
		t.Fatal("symbols should span the alphabet")
	}
}

func TestSAXConstantSeries(t *testing.T) {
	c := make(ts.Series, 32)
	for i := range c {
		c[i] = 42
	}
	rep, err := NewSAX().Reduce(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Reconstruct()
	// Sigma is zero, so reconstruction collapses to the mean.
	for _, v := range rec {
		if v != 42 {
			t.Fatalf("constant reconstruction = %v", rec)
		}
	}
}

// sumSegMaxDev is Figure 1's metric: the sum over a representation's own
// segments of the per-segment max deviation (Definition 3.4 summed).
func sumSegMaxDev(c ts.Series, rep repr.Representation) float64 {
	rec := rep.Reconstruct()
	var ends []int
	switch r := rep.(type) {
	case repr.Linear:
		ends = r.Endpoints()
	case repr.Constant:
		for _, s := range r.Segs {
			ends = append(ends, s.R)
		}
	default:
		for i := 0; i < rep.Segments(); i++ {
			_, hi := repr.FrameBounds(rep.Len(), rep.Segments(), i)
			ends = append(ends, hi-1)
		}
	}
	var sum float64
	start := 0
	for _, e := range ends {
		var m float64
		for t := start; t <= e; t++ {
			if d := math.Abs(c[t] - rec[t]); d > m {
				m = d
			}
		}
		sum += m
		start = e + 1
	}
	return sum
}

// The ordering the paper's Figure 1 illustrates: with equal coefficient
// budget M = 12, the optimal adaptive linear method beats APCA and PLA on
// the sum of segment max deviations for the worked example
// (paper: APLA ≈ 9 < APCA 18.4167 < PLA 19.3999).
func TestFigure1Ordering(t *testing.T) {
	c := paperSeries
	devOf := func(m Method) float64 {
		rep, err := m.Reduce(c, 12)
		if err != nil {
			t.Fatal(err)
		}
		return sumSegMaxDev(c, rep)
	}
	apla := devOf(NewAPLA())
	apca := devOf(NewAPCA())
	pla := devOf(NewPLA())
	if apla >= apca || apla >= pla {
		t.Fatalf("expected APLA (%v) < APCA (%v), PLA (%v)", apla, apca, pla)
	}
}

func TestAPLAMatchesBruteForceSmall(t *testing.T) {
	// Exhaustive check of the DP on a tiny series: all 2-segment cuts.
	c := ts.Series{1, 9, 2, 8, 3, 7, 4, 6}
	rep, err := NewAPLA().Reduce(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.(repr.Linear)
	best := math.Inf(1)
	var bestCut int
	for cut := 0; cut < len(c)-1; cut++ {
		r := repr.FitLinear(c, []int{cut, len(c) - 1})
		rec := r.Reconstruct()
		var m1, m2 float64
		for t2 := 0; t2 <= cut; t2++ {
			if d := math.Abs(c[t2] - rec[t2]); d > m1 {
				m1 = d
			}
		}
		for t2 := cut + 1; t2 < len(c); t2++ {
			if d := math.Abs(c[t2] - rec[t2]); d > m2 {
				m2 = d
			}
		}
		if m1+m2 < best {
			best, bestCut = m1+m2, cut
		}
	}
	if got.Segs[0].R != bestCut {
		t.Fatalf("DP cut %d, brute-force cut %d", got.Segs[0].R, bestCut)
	}
}
