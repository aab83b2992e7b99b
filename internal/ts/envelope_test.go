package ts

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// chunk returns chunk j of x, empty past its end.
func chunk(x Series, j int) Series {
	l := envelopeChunkLen(len(x))
	return x[min(j*l, len(x)):min((j+1)*l, len(x))]
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

// TestEnvelopeBoundIsTight: where the chunk bound is exact the row bound is
// the distance up to the slack — within 1e-5 of it — so the slack is not so
// wide that the filter keeps what it could prune. Two shapes make it exact:
// an affine copy (each chunk's residual a multiple of the query's), and a
// copy plus a quadratic on every chunk (the residuals equal), which only the
// degree-2 coordinates carry. The first chunk alone differing is the edge of
// the second, at every length from sub-chunk series to ragged chunks.
func TestEnvelopeBoundIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{3, 17, 100, 256, 1000, 1024} {
		a := make(Series, n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		affine, quad, first := make(Series, n), make(Series, n), slices.Clone(a)
		for i := range a {
			affine[i] = 3*a[i] + 2
		}
		for j := range EnvelopeChunks {
			x, y := chunk(a, j), chunk(quad, j)
			c0, c1, c2 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			for i := range y {
				u := float64(i) / float64(len(y))
				y[i] = x[i] + c0 + c1*u + c2*u*u
			}
			if j == 0 {
				copy(chunk(first, 0), y)
			}
		}
		for name, b := range map[string]Series{"affine copy": affine, "quadratic offsets": quad, "first chunk offset": first} {
			checkRowBound(t, a, b)
			if lb, d := rowBound(a, b), math.Sqrt(EuclideanSq(a, b)); !(lb >= d*(1-1e-5)) {
				t.Fatalf("n=%d %s: bound %v, distance %v", n, name, lb, d)
			}
		}
	}
}

// TestRowBoundOnEdgeShapes: the row bound stays a bound on envelopeCase's
// chunk shapes — cancelling ±1e16 spikes, offsets of ±1e6 and ±1e150 that the
// means carry and the differences cancel, constant chunks, near-duplicates
// and affine copies — at sub-chunk, ragged and full-chunk lengths.
func TestRowBoundOnEdgeShapes(t *testing.T) {
	for seed := int64(0); seed < 1500; seed++ {
		n := []int{1, 17, 64, 100, 512, 1000, 1024}[seed%7]
		a, b := envelopeCase(seed, n)
		checkRowBound(t, a, b)
		checkRowBound(t, b, a)
	}
}

// TestEnvelopeOverflowDismissesNothing: one chunk whose float32 envelope
// overflows makes the row's bound 0, whatever the other chunks say, on the
// stored side and on the query's: such a row is refined, never dismissed.
func TestEnvelopeOverflowDismissesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := make(Series, 512), make(Series, 512)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = a[i] + 100
	}
	x := chunk(b, 3)
	for i := range x {
		x[i] = 1e200 * float64(1-2*(i%2))
	}
	for _, c := range [][2]Series{{a, b}, {b, a}} {
		if lb := rowBound(c[0], c[1]); lb != 0 || math.Signbit(lb) {
			t.Fatalf("a row bound across an overflowed chunk: %v, want +0", lb)
		}
	}
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
// the row bound is checked at.
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
	})
}

// kernelSpecials are the float32 values that put LowerBounds' sums at their
// edges: infinities and NaN, values whose square or difference overflows,
// signed zeros and subnormals.
var kernelSpecials = []float32{
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32, -math.MaxFloat32, 1e38, -1e38, 1.9e19, -1.9e19,
	0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 1.1754942e-38,
}

// kernelCase derives from a seed a query envelope and count rows with their
// slacks, the rows starting offset floats into their backing array. The
// query comes from wildCase at magnitude 10^exp, one in eight with some of
// its values replaced by kernelSpecials; each row is one of: the envelope of
// another wildCase series, the query's vector a few ulps off, values at a
// random magnitude from the float32 subnormals to 1e38, the query's vector
// plus noise at such a magnitude, or the query's vector with some values
// replaced by kernelSpecials.
func kernelCase(seed int64, count, offset, exp int) (e *Envelope, rows, slack []float32) {
	rng := rand.New(rand.NewSource(seed))
	ns := []int{1, 17, 100, 256, 1024}
	a, _ := wildCase(seed, ns[rng.Intn(len(ns))], exp)
	e = new(Envelope)
	e.Reset(a)
	if rng.Intn(8) == 0 {
		for j := range e.v {
			if rng.Intn(4) == 0 {
				e.v[j] = kernelSpecials[rng.Intn(len(kernelSpecials))]
			}
		}
	}
	rows = make([]float32, offset+count*EnvelopeWidth)[offset:]
	slack = make([]float32, count)
	for i := range slack {
		row := rows[i*EnvelopeWidth:][:EnvelopeWidth]
		switch rng.Intn(5) {
		case 0:
			_, b := wildCase(seed+int64(i)+1, 1+rng.Intn(256), exp+rng.Intn(21)-10)
			slack[i] = EnvelopeRow(b, row)
			continue
		case 1:
			for j := range row {
				row[j] = e.v[j]
				for k := rng.Intn(3); k > 0; k-- {
					row[j] = math.Nextafter32(row[j], float32(rng.NormFloat64()))
				}
			}
		case 2:
			mag := math.Pow(10, float64(rng.Intn(84)-45))
			for j := range row {
				row[j] = float32(mag * rng.NormFloat64())
			}
		case 3:
			mag := math.Pow(10, float64(rng.Intn(64)-45))
			for j := range row {
				row[j] = e.v[j] + float32(mag*rng.NormFloat64())
			}
		default:
			for j := range row {
				row[j] = e.v[j] + float32(rng.NormFloat64())
				if rng.Intn(8) == 0 {
					row[j] = kernelSpecials[rng.Intn(len(kernelSpecials))]
				}
			}
		}
		slack[i] = float32(math.Abs(rng.NormFloat64()) * math.Pow(10, float64(rng.Intn(80)-40)))
	}
	return e, rows, slack
}

// checkKernel holds LowerBounds to lowerBoundsGo, bit for bit, on every row:
// once with the given slacks and once with every slack 0, where a row's
// bound is √s·(1 − δ) for every finite sum s and so shows the sum's bits.
func checkKernel(t *testing.T, e *Envelope, rows, slack []float32) {
	t.Helper()
	bare := *e
	bare.eps = 0
	for _, c := range []struct {
		e     *Envelope
		slack []float32
	}{{e, slack}, {&bare, make([]float32, len(slack))}} {
		got, want := make([]float64, len(slack)), make([]float64, len(slack))
		for i := range got {
			got[i], want[i] = -1, -2
		}
		c.e.LowerBounds(rows, c.slack, got)
		lowerBoundsGo(c.e, rows, c.slack, want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %d of %d (query slack %v, row slack %v): LowerBounds %v (%#x), reference %v (%#x)\nquery %v\nrow %v",
					i, len(got), c.e.eps, c.slack[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]),
					e.v, rows[i*EnvelopeWidth:][:EnvelopeWidth])
			}
		}
	}
}

// TestLowerBoundsMatchesReference: the kernel LowerBounds runs gives the Go
// loop's bits on every row, for row counts on both sides of the kernel's
// 256-row piece, rows starting at every float offset within 16 bytes, and
// queries and rows at every magnitude wildCase and kernelCase draw —
// overflowing, subnormal and 1e±38 values, infinities and NaN included.
func TestLowerBoundsMatchesReference(t *testing.T) {
	counts := []int{0, 1, 2, 3, 5, 31, 255, 256, 257, 300, 511, 512, 513, 600}
	exps := []int{0, 38, -38, 150, 300, -40, -160, -320}
	for seed := int64(0); seed < int64(len(counts)*4*len(exps)); seed++ {
		count := counts[seed%int64(len(counts))]
		offset := int(seed / int64(len(counts)) % 4)
		exp := exps[seed/int64(len(counts)*4)]
		e, rows, slack := kernelCase(seed, count, offset, exp)
		checkKernel(t, e, rows, slack)
	}
}

// FuzzLowerBoundsKernel lets the fuzzer pick the row count, the rows' float
// offset and the magnitudes TestLowerBoundsMatchesReference checks at.
func FuzzLowerBoundsKernel(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(1), int16(0))
	f.Add(int64(2), uint16(257), uint8(3), int16(38))
	f.Add(int64(3), uint16(256), uint8(0), int16(-38))
	f.Add(int64(4), uint16(17), uint8(2), int16(300))
	f.Add(int64(5), uint16(0), uint8(1), int16(-320))
	f.Fuzz(func(t *testing.T, seed int64, count uint16, offset uint8, exp int16) {
		e, rows, slack := kernelCase(seed, int(count%601), int(offset%4), int(exp)%330)
		checkKernel(t, e, rows, slack)
	})
}

// TestRowLBZeroAndNaN pins the tail's max against +0: a bound that comes out
// −0 (a −0 sum) or NaN (a NaN slack, on either side) is +0, in the Go tail
// and in the kernel, whose MAXSD operand order decides it. Flat marks its
// refined slots NaN, so the filter must never yield one.
func TestRowLBZeroAndNaN(t *testing.T) {
	var zero, e Envelope // zero's slack is 0: √−0·(1 − δ) − 0 − 0 is −0
	if lb := zero.rowLB(float32(math.Copysign(0, -1)), 0); lb != 0 || math.Signbit(lb) {
		t.Fatalf("a −0 sum: rowLB %v, want +0", lb)
	}
	e.Reset(Series{1, 2, 3, 4})
	row := make([]float32, 2*EnvelopeWidth)
	copy(row, e.v[:])
	nan := float32(math.NaN())
	for _, c := range []struct {
		eps   float64
		slack []float32
	}{{e.eps, []float32{nan, nan}}, {math.NaN(), []float32{0, 1}}} {
		q := e
		q.eps = c.eps
		got, want := []float64{-1, -1}, []float64{-2, -2}
		q.LowerBounds(row, c.slack, got)
		lowerBoundsGo(&q, row, c.slack, want)
		for i := range got {
			if math.Float64bits(got[i]) != 0 || math.Float64bits(want[i]) != 0 {
				t.Fatalf("query slack %v, row slack %v: LowerBounds %v, reference %v; want +0", c.eps, c.slack[i], got[i], want[i])
			}
		}
	}
}

// BenchmarkEnvelopeRow prices the row build a series pays at insert, bulk
// load and recovery (EnvelopeRow), at the served lengths.
func BenchmarkEnvelopeRow(b *testing.B) {
	for _, n := range []int{256, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := make(Series, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		v := make([]float32, EnvelopeWidth)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			for range b.N {
				EnvelopeRow(x, v)
			}
		})
	}
}

// TestChunkLanesMatchReference: the row build's two kernels give their Go
// loops' bits — on amd64 the SSE2 kernels against momentLanesGo and
// residualLanesGo, elsewhere the loops themselves — for one to eight chunks
// of every length from 1 to past a multiple of 4, at the magnitudes
// wildCase draws (overflowing squares, subnormals) and with fits and steps
// drawn at random, specials included.
func TestChunkLanesMatchReference(t *testing.T) {
	specials := []float64{math.Inf(1), math.NaN(), 0, math.Copysign(0, -1), 1e300, 5e-324}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 125, 128}[seed%13]
		count := 1 + rng.Intn(EnvelopeChunks)
		x, _ := wildCase(seed, count*l, []int{0, 38, 150, 300, -40, -310}[seed%6])
		d := -float64(l-1) / 2
		got, want := make([]laneState, count), make([]laneState, count)
		for i := range got {
			got[i][0], want[i][0] = -1, -2
		}
		momentLanes(x, l, d, got)
		momentLanesGo(x, l, d, want)
		for j := range got {
			for i := range got[j] {
				if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("seed %d l=%d chunk %d: moment lane value %d is %v, reference %v", seed, l, j, i, got[j][i], want[j][i])
				}
			}
		}
		for j := range got {
			for i := range 10 {
				v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				if rng.Intn(16) == 0 {
					v = specials[rng.Intn(len(specials))]
				}
				got[j][i] = v
			}
			got[j][9] = got[j][8]
			want[j] = got[j]
		}
		residualLanes(x, l, got)
		residualLanesGo(x, l, want)
		for j := range got {
			for i := range got[j] {
				if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("seed %d l=%d chunk %d: residual lane value %d is %v, reference %v", seed, l, j, i, got[j][i], want[j][i])
				}
			}
		}
	}
}
