package ts

import "math"

// EnvelopeChunk is the chunk length of a series' envelope: a whole number of
// EuclideanSqAbandon's looks (four), and a power of two, so a full chunk's
// mean is its sum times an exact constant.
const EnvelopeChunk = 64

// EnvelopeChunks returns how many chunks an envelope of an n-point series
// has: n/EnvelopeChunk rounded up, the last one shorter when n is not a
// multiple.
func EnvelopeChunks(n int) int { return (n + EnvelopeChunk - 1) / EnvelopeChunk }

// envelopeSlack is κ, the relative slack of every envelope value (see
// EuclideanSqEnvelope). A value stored as float32 is off by at most 2⁻²⁴ of
// its size; ChunkEnvelope's own float64 error is below (3l+8)·2⁻⁵³ of the
// chunk's norm, under 2⁻⁴⁵ for l ≤ 64. κ = 2⁻²² is four times their sum.
const envelopeSlack = 0x1p-22

// envelopeFloor is an absolute slack beside κ: a float32 below 2⁻¹²⁶ is
// subnormal and off by up to 2⁻¹⁵⁰ whatever its size, twice that for a
// chunk's two values.
const envelopeFloor = 0x1p-148

// ChunkEnvelope returns the envelope of one chunk x of l points: its sum
// scaled by 1/√l — the mean's coordinate along the unit vector 1/√l — and its
// residual norm ‖x − mean·1‖. The residual is taken in a second pass against
// the mean rather than from Σx² − l·mean², which cancels when the chunk sits
// far from zero. Both passes add in four lanes, which shortens the chain of
// dependent adds a row insert waits on; in any order a sum of l terms is
// within (l−1)·2⁻⁵³ of the sum of their magnitudes, all that
// EuclideanSqEnvelope's slack assumes.
func ChunkEnvelope(x Series) (m, rho float64) {
	var s0, s1, s2, s3 float64
	y := x
	for ; len(y) >= 4; y = y[4:] {
		s0 += y[0]
		s1 += y[1]
		s2 += y[2]
		s3 += y[3]
	}
	for _, v := range y {
		s0 += v
	}
	s := (s0 + s1) + (s2 + s3)
	l := float64(len(x))
	mean := s / l
	var r0, r1, r2, r3 float64
	for y = x; len(y) >= 4; y = y[4:] {
		d0, d1, d2, d3 := y[0]-mean, y[1]-mean, y[2]-mean, y[3]-mean
		r0 += d0 * d0
		r1 += d1 * d1
		r2 += d2 * d2
		r3 += d3 * d3
	}
	for _, v := range y {
		d := v - mean
		r0 += d * d
	}
	return s / math.Sqrt(l), math.Sqrt((r0 + r1) + (r2 + r3))
}

// Envelope is a query's side of EuclideanSqEnvelope: every chunk's envelope
// at float64, the query's half of each chunk's slack, and scratch for one
// candidate's suffix bounds. The zero value is empty; Reset builds it, and a
// reused Envelope stops allocating once it has seen the longest query.
type Envelope struct {
	m, rho []float64 // ChunkEnvelope per chunk
	slack  []float64 // κ·(|m|+ρ) + envelopeFloor per chunk
	suf    []float64 // suf[j]: a lower bound on the squared distance over chunks j.. of one candidate
}

// Reset rebuilds the envelope for q.
func (e *Envelope) Reset(q Series) {
	nc := EnvelopeChunks(len(q))
	if cap(e.m) < nc {
		e.m, e.rho = make([]float64, nc), make([]float64, nc)
		e.slack, e.suf = make([]float64, nc), make([]float64, nc+1)
	}
	e.m, e.rho, e.slack, e.suf = e.m[:nc], e.rho[:nc], e.slack[:nc], e.suf[:nc+1]
	for j := range e.m {
		m, rho := ChunkEnvelope(q[j*EnvelopeChunk : min((j+1)*EnvelopeChunk, len(q))])
		e.m[j], e.rho[j] = m, rho
		e.slack[j] = envelopeSlack*(math.Abs(m)+rho) + envelopeFloor
	}
}

// EuclideanSqEnvelope is EuclideanSqAbandon for a query a whose envelope is
// qe and a candidate b whose chunks' ChunkEnvelope values, rounded to
// float32, are bm and brho. It abandons on a lower bound of the whole sum
// instead of the partial sum alone, and adds the same terms in the same order
// when it reads b at all, so a completed sum (ok) is bit-identical to
// EuclideanSq(a, b). When it gives up, the value it returns exceeds limit and
// so does the full EuclideanSq; dismissed reports that it gave up before
// reading any value.
//
// The bound. Per chunk write x = (m/√l)·1 + r with r ⟂ 1, ‖r‖ = ρ; then
// ‖x_q − x_c‖² = (m_q − m_c)² + ‖r_q − r_c‖² ≥ (m_q − m_c)² + (ρ_q − ρ_c)².
// Every value carries an error below κ·(|m|+ρ) of its own chunk (|m|+ρ ≥ ‖x‖,
// which bounds the float32 rounding and, through Σ|x_i| ≤ √l·‖x‖, the float64
// sums), so with e = the two sides' κ·(|m|+ρ) plus the subnormal floor,
// max(0, |m_q − m_c| − e)² + max(0, |ρ_q − ρ_c| − e)² is a bound on the exact
// chunk distance. suf[j] sums them over chunks j.. . The kernel dismisses b
// when suf[0] exceeds the guard, and at each look after i terms abandons when
// the partial sum plus suf[⌈i/64⌉] does. The guard is limit·(1+(n+64)·2⁻⁵²):
// the computed sum is at least the exact one times 1−(n+3)·2⁻⁵³ (each term
// rounds thrice, each addition once, all terms non-negative), and the bound's
// own evaluation rounds ≤ n/64+4 times, so a bound above the guard proves the
// computed sum above limit. A NaN bound — a chunk whose envelope overflowed —
// dismisses nothing: the kernel falls back to EuclideanSqAbandon. It panics if
// the lengths differ or the envelopes do not cover the series.
func EuclideanSqEnvelope(a, b Series, qe *Envelope, bm, brho []float32, limit float64) (sum float64, ok, dismissed bool) {
	nc := len(qe.m)
	if len(a) != len(b) || EnvelopeChunks(len(a)) != nc || len(bm) != nc || len(brho) != nc {
		panic(ErrLengthMismatch)
	}
	suf := qe.suf
	suf[nc] = 0
	for j := nc - 1; j >= 0; j-- {
		mc, rc := float64(bm[j]), float64(brho[j])
		e := qe.slack[j] + envelopeSlack*(math.Abs(mc)+rc)
		dm := max(math.Abs(qe.m[j]-mc)-e, 0)
		dr := max(math.Abs(qe.rho[j]-rc)-e, 0)
		suf[j] = suf[j+1] + dm*dm + dr*dr
	}
	if math.IsNaN(suf[0]) {
		sum, ok = EuclideanSqAbandon(a, b, limit)
		return sum, ok, false
	}
	guard := limit * (1 + float64(len(a)+64)*0x1p-52)
	if suf[0] > guard {
		return suf[0], false, true
	}
	i := 0
	for ; i+abandonStride <= len(a); i += abandonStride {
		x, y := a[i:i+abandonStride], b[i:i+abandonStride]
		for j := range x {
			d := x[j] - y[j]
			sum += d * d
		}
		if lb := sum + suf[(i+abandonStride+EnvelopeChunk-1)/EnvelopeChunk]; lb > guard {
			return lb, false, false
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum, true, false
}
