package ts

import (
	"math"
	"math/rand"
	"testing"
)

// envelopeOf is the stored side of EuclideanSqEnvelope: every chunk's
// ChunkEnvelope rounded to float32, as index.Flat keeps it.
func envelopeOf(s Series) []float32 {
	v := make([]float32, EnvelopeWidth)
	EnvelopeRow(s, v)
	return v
}

// rowBound is LowerBounds for a query a and one stored row, b's.
func rowBound(a, b Series) float64 {
	var qe Envelope
	qe.Reset(a)
	v := make([]float32, EnvelopeWidth)
	slack := []float32{EnvelopeRow(b, v)}
	out := make([]float64, 1)
	qe.LowerBounds(v, slack, out)
	return out[0]
}

// checkRowBound holds LowerBounds to its contract: a finite value of at least
// 0 that does not exceed the distance EuclideanSq's sum gives.
func checkRowBound(t *testing.T, a, b Series) {
	t.Helper()
	lb, d := rowBound(a, b), math.Sqrt(EuclideanSq(a, b))
	if !(lb >= 0 && lb <= d) || math.IsInf(lb, 0) {
		t.Fatalf("n=%d: row bound %v, distance %v", len(a), lb, d)
	}
}

// checkEnvelope holds EuclideanSqEnvelope to EuclideanSqAbandon's contract: a
// completed sum is bit-identical to EuclideanSq, a sum given up on — read or
// not — proves that the full sum exceeds the limit. It reports whether the
// kernel gave up and whether it did so without reading.
func checkEnvelope(t *testing.T, a, b Series, limit float64) (abandoned, dismissed bool) {
	t.Helper()
	checkRowBound(t, a, b)
	var qe Envelope
	qe.Reset(a)
	row := envelopeOf(b)
	full := EuclideanSq(a, b)
	sum, ok, dismissed := EuclideanSqEnvelope(a, b, &qe, row, limit)
	if ok {
		if dismissed || math.Float64bits(sum) != math.Float64bits(full) {
			t.Fatalf("n=%d limit=%g: completed with %v (dismissed %v), EuclideanSq says %v", len(a), limit, sum, dismissed, full)
		}
		return false, false
	}
	if !(sum > limit) || !(full > limit) {
		t.Fatalf("n=%d limit=%g: gave up at %v (dismissed %v) with full sum %v", len(a), limit, sum, dismissed, full)
	}
	return true, dismissed
}

// envelopeCase derives a query a and a candidate b from a seed, chunk by
// chunk, in the shapes that put the envelope bound at its edge: independent
// noise; b an affine copy of a, where the bound is the exact distance;
// constant chunks (ρ = 0); near-duplicates; a shared offset of ±1e6 or
// ±1e150 that the means carry and the differences cancel; and cancelling
// chunks whose ±1e16 spikes sum to nearly nothing.
func envelopeCase(seed int64, n int) (a, b Series) {
	rng := rand.New(rand.NewSource(seed))
	a, b = make(Series, n), make(Series, n)
	offsets := []float64{1e6, -1e6, 1e150, -1e150}
	for j := 0; j < EnvelopeChunks; j++ {
		x, y := chunk(a, j), chunk(b, j)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		switch rng.Intn(7) {
		case 0:
			for i := range y {
				y[i] = rng.NormFloat64()
			}
		case 1:
			alpha, beta := rng.NormFloat64(), rng.NormFloat64()
			for i := range y {
				y[i] = alpha*x[i] + beta
			}
		case 2:
			cx, cy := rng.NormFloat64(), rng.NormFloat64()
			for i := range y {
				x[i], y[i] = cx, cy
			}
		case 3:
			for i := range y {
				y[i] = x[i] + 1e-12*rng.NormFloat64()
			}
		case 4:
			off := offsets[rng.Intn(len(offsets))]
			for i := range y {
				y[i] = x[i] + rng.NormFloat64() + off
				x[i] += off
			}
		case 5:
			for i := range y {
				spike := 1e16 * float64(1-2*(i%2))
				x[i] += spike
				y[i] = x[i] + 0.5*rng.NormFloat64()
			}
		default:
			copy(y, x)
		}
	}
	return a, b
}

// TestEuclideanSqEnvelope: at the limits a search hands the kernel — 0, +Inf,
// a fraction or multiple of the distance, the distance itself and the float
// just below it — the kernel keeps EuclideanSqAbandon's contract. The limit
// equal to the full sum is the property that the bound, slack included,
// never exceeds the sequential sum: a candidate at exactly the limit must
// complete. Lengths cover sub-chunk series, multiples of 64 and ragged last
// chunks.
func TestEuclideanSqEnvelope(t *testing.T) {
	var abandoned, dismissed int
	for seed := int64(0); seed < 1500; seed++ {
		n := []int{1, 17, 64, 100, 512, 1000, 1024}[seed%7]
		a, b := envelopeCase(seed, n)
		full := EuclideanSq(a, b)
		for _, limit := range []float64{0, math.Inf(1), full, math.Nextafter(full, 0), full / 2, full * 0.999, full * 2} {
			ab, dis := checkEnvelope(t, a, b, limit)
			if ab {
				abandoned++
			}
			if dis {
				dismissed++
			}
		}
		// The bound at its own distance: nothing is given up.
		var qe Envelope
		qe.Reset(a)
		row := envelopeOf(b)
		if _, ok, _ := EuclideanSqEnvelope(a, b, &qe, row, full); !ok {
			t.Fatalf("seed %d n=%d: gave up on a candidate at exactly the limit %v", seed, n, full)
		}
	}
	if abandoned == 0 || dismissed == 0 {
		t.Fatalf("abandoned %d, dismissed %d: the property was not checked on both ways of giving up", abandoned, dismissed)
	}
}

// TestEnvelopeBoundIsTight: on affine copies the bound is the exact distance
// up to the slack, so a limit a hair below it is dismissed unread — the
// slack is not so wide that the kernel reads what it could have skipped.
func TestEnvelopeBoundIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := make(Series, 1024), make(Series, 1024)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = 3*a[i] + 2
	}
	var qe Envelope
	qe.Reset(a)
	row := envelopeOf(b)
	full := EuclideanSq(a, b)
	if _, ok, dismissed := EuclideanSqEnvelope(a, b, &qe, row, full*(1-1e-5)); ok || !dismissed {
		t.Fatalf("limit 1e-5 below the distance of an affine copy: ok %v, dismissed %v; want dismissed", ok, dismissed)
	}
}

// TestEnvelopeOverflowDismissesNothing: a chunk whose float32 envelope
// overflows makes the bound NaN, and the kernel falls back to plain
// abandoning rather than trusting it.
func TestEnvelopeOverflowDismissesNothing(t *testing.T) {
	a, b := make(Series, 512), make(Series, 512)
	for i := range a {
		a[i], b[i] = 1e200, 1e200
	}
	b[3] = -1e200
	var qe Envelope
	qe.Reset(a)
	row := envelopeOf(b)
	full := EuclideanSq(a, b)
	if sum, ok, dismissed := EuclideanSqEnvelope(a, b, &qe, row, full); !ok || dismissed || sum != full {
		t.Fatalf("overflowed envelope: (%v, %v, %v), want (%v, true, false)", sum, ok, dismissed, full)
	}
	if _, ok, dismissed := EuclideanSqEnvelope(a, b, &qe, row, 1); ok || dismissed {
		t.Fatalf("overflowed envelope at limit 1: ok %v, dismissed %v; want a plain abandon", ok, dismissed)
	}
	for name, call := range map[string]func(){
		"a short row":                    func() { EuclideanSqEnvelope(a, b, &qe, row[:EnvelopeWidth-2], 1) },
		"a query envelope of 512 points": func() { EuclideanSqEnvelope(a[:448], b[:448], &qe, row, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

func FuzzEuclideanSqEnvelope(f *testing.F) {
	f.Add(int64(1), uint16(1024), 0.5)
	f.Add(int64(2), uint16(1000), 1.0)
	f.Add(int64(3), uint16(512), 0.0)
	f.Add(int64(4), uint16(64), 2.0)
	f.Add(int64(5), uint16(17), 1.0)
	f.Add(int64(6), uint16(1024), 0.999999)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, scale float64) {
		if math.IsNaN(scale) {
			t.Skip()
		}
		a, b := envelopeCase(seed, 1+int(n%2048))
		checkEnvelope(t, a, b, scale*EuclideanSq(a, b))
	})
}

// wildCase derives a query a and a candidate b of n points whose chunks sit
// at random magnitudes around 10^exp — up to 1e300, where squares overflow,
// and down through the float32 and float64 subnormals — as independent
// draws, near copies, or a shared level with small differences.
func wildCase(seed int64, n, exp int) (a, b Series) {
	rng := rand.New(rand.NewSource(seed))
	a, b = make(Series, n), make(Series, n)
	for j := 0; j < EnvelopeChunks; j++ {
		x, y := chunk(a, j), chunk(b, j)
		mag := math.Pow(10, float64(min(max(exp+rng.Intn(41)-20, -323), 300)))
		level := mag * rng.NormFloat64()
		for i := range x {
			x[i] = level + mag*rng.NormFloat64()
			switch rng.Intn(3) {
			case 0:
				y[i] = mag * rng.NormFloat64()
			case 1:
				y[i] = x[i] * (1 + 1e-9*rng.NormFloat64())
			default:
				y[i] = -level + mag*rng.NormFloat64()
			}
		}
	}
	return a, b
}

// TestEnvelopeLowerBounds: the row bound never exceeds the computed distance
// at any magnitude a float64 series can carry, on every length from one point
// to ragged and full chunks; it is 0 for a row whose envelope overflows a
// float32; and on affine copies, where the chunk bound is exact, it is within
// 1e-5 of the distance — the slack is not so wide that the filter keeps what
// it could prune.
func TestEnvelopeLowerBounds(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		n := []int{1, 17, 100, 256, 1000, 1024}[seed%6]
		exp := []int{0, 38, 150, 300, -40, -160, -310, -320}[seed/6%8]
		a, b := wildCase(seed, n, exp)
		checkRowBound(t, a, b)
		checkRowBound(t, b, a)
	}
	lo, hi, q := make(Series, 256), make(Series, 256), make(Series, 256)
	for i := range q {
		lo[i], hi[i], q[i] = -1e38, 1e38, 5e37
	}
	for _, c := range []Series{lo, hi} {
		if lb := rowBound(q, c); lb != 0 {
			t.Fatalf("a row whose chunk sums overflow a float32: bound %v, want 0", lb)
		}
	}
	rng := rand.New(rand.NewSource(5))
	a, b := make(Series, 1024), make(Series, 1024)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = 3*a[i] + 2
	}
	if lb, d := rowBound(a, b), math.Sqrt(EuclideanSq(a, b)); !(lb >= d*(1-1e-5)) {
		t.Fatalf("affine copy: bound %v, distance %v", lb, d)
	}
}

// FuzzEnvelopeLowerBound lets the fuzzer pick the length and the magnitudes
// the row bound and the abandoning kernel are checked at.
func FuzzEnvelopeLowerBound(f *testing.F) {
	f.Add(int64(1), uint8(0), int16(0))
	f.Add(int64(2), uint8(1), int16(300))
	f.Add(int64(3), uint8(2), int16(-310))
	f.Add(int64(4), uint8(3), int16(38))
	f.Add(int64(5), uint8(4), int16(-40))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, exp int16) {
		n := []int{1, 17, 100, 256, 1024}[size%5]
		a, b := wildCase(seed, n, int(exp)%330)
		checkRowBound(t, a, b)
		full := EuclideanSq(a, b)
		for _, limit := range []float64{full, full / 2} {
			checkEnvelope(t, a, b, limit)
		}
	})
}
