package dist

import (
	"math"
	"math/rand"
	"testing"

	"sapla/internal/core"
	"sapla/internal/reduce"
	"sapla/internal/repr"
	"sapla/internal/ts"
)

func randWalk(rng *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

func euclid(a, b ts.Series) float64 {
	d, err := ts.Euclidean(a, b)
	if err != nil {
		panic(err)
	}
	return d
}

func TestPARIsReconstructionDistance(t *testing.T) {
	// Dist_PAR equals the exact Euclidean distance between the two
	// reconstructions (partitioning preserves the lines).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 40 + rng.Intn(200)
		q := randWalk(rng, n)
		c := randWalk(rng, n)
		qr, err := core.New().Reduce(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := core.New().Reduce(c, 12)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PAR(qr.(repr.Linear), cr.(repr.Linear))
		if err != nil {
			t.Fatal(err)
		}
		want := euclid(qr.Reconstruct(), cr.Reconstruct())
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("PAR = %v, reconstruction distance = %v", got, want)
		}
	}
}

func TestPARIdenticalSeriesIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randWalk(rng, 100)
	r1, _ := core.New().Reduce(c, 12)
	r2, _ := core.New().Reduce(c, 12)
	d, err := PAR(r1.(repr.Linear), r2.(repr.Linear))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("PAR of identical series = %v", d)
	}
}

func TestPARSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randWalk(rng, 128)
	c := randWalk(rng, 128)
	qr, _ := core.New().Reduce(q, 15)
	cr, _ := core.New().Reduce(c, 15)
	a, _ := PAR(qr.(repr.Linear), cr.(repr.Linear))
	b, _ := PAR(cr.(repr.Linear), qr.(repr.Linear))
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("PAR not symmetric: %v vs %v", a, b)
	}
}

func TestPARIncompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := randWalk(rng, 64)
	c := randWalk(rng, 128)
	qr, _ := core.New().Reduce(q, 12)
	cr, _ := core.New().Reduce(c, 12)
	if _, err := PAR(qr.(repr.Linear), cr.(repr.Linear)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// The guaranteed lower-bound lemma (Section A.5): Dist_LB never exceeds the
// true Euclidean distance — exact property, no tolerance games.
func TestLBLowerBoundsEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 30 + rng.Intn(200)
		q := randWalk(rng, n)
		c := randWalk(rng, n)
		qp := ts.NewPrefix(q)
		// Linear representation (SAPLA).
		cr, err := core.New().Reduce(c, 12)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := LB(qp, cr.(repr.Linear))
		if err != nil {
			t.Fatal(err)
		}
		d := euclid(q, c)
		if lb > d+1e-7 {
			t.Fatalf("LB %v > Euclid %v", lb, d)
		}
		// Constant representation (APCA).
		ca, err := reduce.NewAPCA().Reduce(c, 12)
		if err != nil {
			t.Fatal(err)
		}
		lbc, err := LBConst(qp, ca.(repr.Constant))
		if err != nil {
			t.Fatal(err)
		}
		if lbc > d+1e-7 {
			t.Fatalf("LBConst %v > Euclid %v", lbc, d)
		}
	}
}

// Dist_PAA lower-bounds the Euclidean distance (Keogh).
func TestPAALowerBoundsEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		n := 16 + rng.Intn(200)
		q := randWalk(rng, n)
		c := randWalk(rng, n)
		qr, _ := reduce.NewPAA().Reduce(q, 8)
		cr, _ := reduce.NewPAA().Reduce(c, 8)
		lb, err := PAA(qr.(repr.PAA), cr.(repr.PAA))
		if err != nil {
			t.Fatal(err)
		}
		if d := euclid(q, c); lb > d+1e-7 {
			t.Fatalf("PAA %v > Euclid %v", lb, d)
		}
	}
}

// Dist_PLA lower-bounds the Euclidean distance (Chen et al.).
func TestPLALowerBoundsEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 20 + rng.Intn(200)
		q := randWalk(rng, n)
		c := randWalk(rng, n)
		qr, _ := reduce.NewPLA().Reduce(q, 8)
		cr, _ := reduce.NewPLA().Reduce(c, 8)
		lb, err := PLA(qr.(repr.Linear), cr.(repr.Linear))
		if err != nil {
			t.Fatal(err)
		}
		if d := euclid(q, c); lb > d+1e-7 {
			t.Fatalf("PLA %v > Euclid %v", lb, d)
		}
	}
}

// SAX MINDIST lower-bounds the Euclidean distance on z-normalised series.
func TestSAXMinDistLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 32 + rng.Intn(128)
		q := randWalk(rng, n).ZNormalize()
		c := randWalk(rng, n).ZNormalize()
		qr, _ := reduce.NewSAX().Reduce(q, 8)
		cr, _ := reduce.NewSAX().Reduce(c, 8)
		lb, err := SAXMinDist(qr.(repr.Word), cr.(repr.Word))
		if err != nil {
			t.Fatal(err)
		}
		if d := euclid(q, c); lb > d+1e-7 {
			t.Fatalf("MINDIST %v > Euclid %v", lb, d)
		}
	}
}

func TestSAXMinDistAdjacentSymbolsZero(t *testing.T) {
	w1 := repr.Word{N: 8, Alphabet: 4, Symbols: []int{0, 1, 2, 3}, Sigma: 1}
	w2 := repr.Word{N: 8, Alphabet: 4, Symbols: []int{1, 2, 3, 2}, Sigma: 1}
	d, err := SAXMinDist(w1, w2)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("adjacent symbols should give 0, got %v", d)
	}
}

// The paper's tightness story (Fig. 10): LB ≤ PAR on average and PAR is a
// much tighter approximation of the Euclidean distance; AE is tight but can
// exceed it. Statistical check over fixed seeds.
func TestTightnessOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sumLB, sumPAR, sumAE, sumD float64
	parOverD := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		n := 64
		q := randWalk(rng, n)
		c := randWalk(rng, n)
		qr, _ := core.New().Reduce(q, 12)
		cr, _ := core.New().Reduce(c, 12)
		qq := NewQuery(q, qr)
		lb, err := Adaptive(MeasureLB, qq, cr)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Adaptive(MeasurePAR, qq, cr)
		if err != nil {
			t.Fatal(err)
		}
		ae, err := Adaptive(MeasureAE, qq, cr)
		if err != nil {
			t.Fatal(err)
		}
		d := euclid(q, c)
		sumLB += lb
		sumPAR += par
		sumAE += ae
		sumD += d
		if par > d+1e-9 {
			parOverD++
		}
		if lb > d+1e-7 {
			t.Fatalf("LB broke the lower bound: %v > %v", lb, d)
		}
	}
	if !(sumLB <= sumPAR && sumPAR <= sumAE) {
		t.Fatalf("mean tightness ordering broken: LB=%v PAR=%v AE=%v D=%v",
			sumLB/trials, sumPAR/trials, sumAE/trials, sumD/trials)
	}
	if sumPAR > sumD {
		t.Fatalf("PAR not a lower bound on average: %v > %v", sumPAR/trials, sumD/trials)
	}
	// The paper proves PAR's lower bound under its segmentation assumptions;
	// violations on arbitrary random data must stay rare.
	if float64(parOverD) > 0.02*trials {
		t.Fatalf("PAR exceeded Euclid in %d/%d trials", parOverD, trials)
	}
}

// Dist_PAR is a metric on representations (it equals the L2 distance
// between reconstructions): symmetry and the triangle inequality must hold.
// The DBCH SafeBound cover radii rely on this.
func TestPARIsAMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const n = 96
	reps := make([]repr.Linear, 12)
	for i := range reps {
		r, err := core.New().Reduce(randWalk(rng, n), 12)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r.(repr.Linear)
	}
	d := func(i, j int) float64 {
		v, err := PAR(reps[i], reps[j])
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i := range reps {
		if d(i, i) != 0 {
			t.Fatalf("d(%d,%d) = %v", i, i, d(i, i))
		}
		for j := range reps {
			if math.Abs(d(i, j)-d(j, i)) > 1e-9 {
				t.Fatal("not symmetric")
			}
			for k := range reps {
				if d(i, j) > d(i, k)+d(k, j)+1e-9 {
					t.Fatalf("triangle violated: d(%d,%d)=%v > %v+%v",
						i, j, d(i, j), d(i, k), d(k, j))
				}
			}
		}
	}
}

func TestAEMatchesReconstructionDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := randWalk(rng, 100)
	c := randWalk(rng, 100)
	cr, _ := reduce.NewAPCA().Reduce(c, 12)
	ae, err := AE(q, cr)
	if err != nil {
		t.Fatal(err)
	}
	want := euclid(q, cr.Reconstruct())
	if math.Abs(ae-want) > 1e-9 {
		t.Fatalf("AE = %v, want %v", ae, want)
	}
	if _, err := AE(q[:50], cr); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestChebyDistSelfZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randWalk(rng, 64)
	cr, _ := reduce.NewCHEBY().Reduce(c, 8)
	d, err := Cheby(cr.(repr.Cheby), cr.(repr.Cheby))
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestChebyDistApproximatesEuclid(t *testing.T) {
	// With a full coefficient set, the Chebyshev coefficient distance should
	// approximate the Euclidean distance between reconstructions.
	rng := rand.New(rand.NewSource(12))
	q := randWalk(rng, 128)
	c := randWalk(rng, 128)
	qr, _ := reduce.NewCHEBY().Reduce(q, 16)
	cr, _ := reduce.NewCHEBY().Reduce(c, 16)
	cd, _ := Cheby(qr.(repr.Cheby), cr.(repr.Cheby))
	rd := euclid(qr.Reconstruct(), cr.Reconstruct())
	if cd < 0.5*rd || cd > 2*rd {
		t.Fatalf("Cheby dist %v too far from reconstruction dist %v", cd, rd)
	}
}

func TestFilterDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := randWalk(rng, 96)
	c := randWalk(rng, 96)
	for _, meth := range reduce.Baselines() {
		f, err := Filter(meth.Name())
		if err != nil {
			t.Fatalf("%s: %v", meth.Name(), err)
		}
		qr, err := meth.Reduce(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := meth.Reduce(c, 12)
		if err != nil {
			t.Fatal(err)
		}
		d, err := f(NewQuery(q, qr), cr)
		if err != nil {
			t.Fatalf("%s: %v", meth.Name(), err)
		}
		if d < 0 || math.IsNaN(d) {
			t.Fatalf("%s: bad distance %v", meth.Name(), d)
		}
	}
	// SAPLA dispatch.
	f, err := Filter("SAPLA")
	if err != nil {
		t.Fatal(err)
	}
	qr, _ := core.New().Reduce(q, 12)
	cr, _ := core.New().Reduce(c, 12)
	if _, err := f(NewQuery(q, qr), cr); err != nil {
		t.Fatal(err)
	}
	if _, err := Filter("NOPE"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestFilterTypeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	q := randWalk(rng, 64)
	qr, _ := reduce.NewPAA().Reduce(q, 8)
	f, _ := Filter("SAX")
	if _, err := f(NewQuery(q, qr), qr); err == nil {
		t.Fatal("type mismatch accepted")
	}
}

func TestAdaptiveUnknownMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	q := randWalk(rng, 64)
	qr, _ := core.New().Reduce(q, 12)
	if _, err := Adaptive("XX", NewQuery(q, qr), qr); err == nil {
		t.Fatal("unknown measure accepted")
	}
}

func TestRepDist(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, _ := core.New().Reduce(randWalk(rng, 64), 12)
	b, _ := core.New().Reduce(randWalk(rng, 64), 12)
	rd, err := RepDist("SAPLA")
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := PAR(a.(repr.Linear), b.(repr.Linear))
	if got != want {
		t.Fatalf("RepDist %v != PAR %v", got, want)
	}
	if _, err := RepDist("NOPE"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestPLADistMismatchedSegmentations(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := randWalk(rng, 64)
	c := randWalk(rng, 64)
	q8, _ := reduce.NewPLA().Reduce(q, 8)
	c4, _ := reduce.NewPLA().Reduce(c, 4)
	if _, err := PLA(q8.(repr.Linear), c4.(repr.Linear)); err == nil {
		t.Fatal("different segment counts accepted")
	}
	// Same count, different endpoints.
	a := repr.Linear{N: 10, Segs: []repr.LinearSeg{{R: 4}, {R: 9}}}
	b := repr.Linear{N: 10, Segs: []repr.LinearSeg{{R: 5}, {R: 9}}}
	if _, err := PLA(a, b); err == nil {
		t.Fatal("different endpoints accepted")
	}
}

func TestAsLinearRejectsOthers(t *testing.T) {
	if _, ok := AsLinear(repr.PAA{N: 4, Values: []float64{1}}); ok {
		t.Fatal("PAA converted to linear")
	}
	if _, ok := AsLinear(repr.Word{N: 4, Alphabet: 4, Symbols: []int{0}}); ok {
		t.Fatal("Word converted to linear")
	}
	c := repr.Constant{N: 4, Segs: []repr.ConstSeg{{V: 1, R: 3}}}
	lin, ok := AsLinear(c)
	if !ok || lin.Segments() != 1 {
		t.Fatal("Constant should convert")
	}
}

func TestAdaptiveMeasureTypeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := randWalk(rng, 64)
	paaRep, _ := reduce.NewPAA().Reduce(q, 8)
	query := NewQuery(q, paaRep)
	if _, err := Adaptive(MeasurePAR, query, paaRep); err == nil {
		t.Fatal("PAR accepted PAA reps")
	}
	if _, err := Adaptive(MeasureLB, query, paaRep); err == nil {
		t.Fatal("LB accepted PAA reps")
	}
}
