package ts

import "math"

// EnvelopeChunks is W, the number of chunks of a series' envelope: an n-point
// series is cut into chunks of ⌈n/W⌉ points, the last non-empty one shorter
// when W does not divide n, and the chunks past the series' end (n < W, or a
// ragged tail) are empty with envelope (0, 0). At 1024 points the chunks are
// 64 points long, four of EuclideanSqAbandon's looks.
const EnvelopeChunks = 16

// EnvelopeWidth is the length of an envelope vector v = (m₁…m_W, ρ₁…ρ_W).
const EnvelopeWidth = 2 * EnvelopeChunks

// envelopeChunkLen returns the chunk length of an n-point series' envelope.
func envelopeChunkLen(n int) int { return (n + EnvelopeChunks - 1) / EnvelopeChunks }

// envelopeSlack is κ, the relative slack of every envelope value (see
// EuclideanSqEnvelope). A value stored as float32 is off by at most 2⁻²⁴ of
// its size; ChunkEnvelope's own float64 error is below (3l+8)·2⁻⁵³ of the
// chunk's norm, under 2⁻²⁴·0.75 for any series of fewer than 2³¹ points
// (l < 2²⁷). κ = 2⁻²² is more than twice their sum.
const envelopeSlack = 0x1p-22

// envelopeFloor is an absolute slack beside κ: a float32 below 2⁻¹²⁶ is
// subnormal and off by up to 2⁻¹⁵⁰ whatever its size, twice that for a
// chunk's two values.
const envelopeFloor = 0x1p-148

// rowFloor is the absolute part of a row's slack (EnvelopeRow): it covers
// the subnormal rounding of the stored values (√(2W)·2⁻¹⁵⁰ < 2⁻¹⁴⁷) and of
// LowerBounds' float32 squares, each off by up to 2⁻¹⁵⁰ below 2⁻¹²⁶, which
// moves the root of the 2W-term sum by less than √(2W+1)·2⁻⁷⁵ < 2⁻⁷².
const rowFloor = 0x1p-72

// rowShrink is 1 − δ, LowerBounds' factor on the float32 distance. δ = 2⁻²⁰
// covers the kernel's rounding — each of the 2W squares reaches the sum
// through at most 13 float32 roundings and the root through one float64
// one, so the computed root is within (1+2⁻²⁴)⁷ of the exact one — with
// 2⁻²¹ to spare, and the spare covers the three float64 roundings after it
// and the refine sum's own (n+3)·2⁻⁵³ (n < 2³¹; see LowerBounds).
const rowShrink = 1 - 0x1p-20

// ChunkEnvelope returns the envelope of one chunk x of l points: its sum
// scaled by 1/√l — the mean's coordinate along the unit vector 1/√l — and its
// residual norm ‖x − mean·1‖. The residual is taken in a second pass against
// the mean rather than from Σx² − l·mean², which cancels when the chunk sits
// far from zero. Both passes add in four lanes, which shortens the chain of
// dependent adds a row insert waits on; in any order a sum of l terms is
// within (l−1)·2⁻⁵³ of the sum of their magnitudes, all that
// EuclideanSqEnvelope's slack assumes. An empty chunk is (0, 0).
func ChunkEnvelope(x Series) (m, rho float64) {
	if len(x) == 0 {
		return 0, 0
	}
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

// chunk returns chunk j of x, empty past its end.
func chunk(x Series, j int) Series {
	l := envelopeChunkLen(len(x))
	return x[min(j*l, len(x)):min((j+1)*l, len(x))]
}

// envelopeValues computes every chunk's envelope of x at float64, the vector v
// rounded to float32, and the row slack ε = 2κ‖x‖ + rowFloor, ‖x‖² being
// Σⱼ(mⱼ² + ρⱼ²). While every value of v fits a float32, ‖x‖² is far from
// overflowing; once one does not, ε may be +Inf or NaN, and LowerBounds
// gives the row 0 whatever ε is.
func envelopeValues(x Series, m, rho *[EnvelopeChunks]float64, v []float32) (eps float64) {
	var norm2 float64
	for j := range m {
		m[j], rho[j] = ChunkEnvelope(chunk(x, j))
		v[j], v[EnvelopeChunks+j] = float32(m[j]), float32(rho[j])
		norm2 += m[j]*m[j] + rho[j]*rho[j]
	}
	return 2*envelopeSlack*math.Sqrt(norm2) + rowFloor
}

// EnvelopeRow writes the envelope vector of x — every chunk's ChunkEnvelope
// rounded to float32, v = (m₁…m_W, ρ₁…ρ_W) — into v, which must hold
// EnvelopeWidth values, and returns the row's slack ε (see LowerBounds),
// rounded to float32. The stored side of LowerBounds and EuclideanSqEnvelope.
func EnvelopeRow(x Series, v []float32) (slack float32) {
	var m, rho [EnvelopeChunks]float64
	return float32(envelopeValues(x, &m, &rho, v[:EnvelopeWidth]))
}

// Envelope is a query's side of LowerBounds, EuclideanSqEnvelope and a
// RefineGroup's envelope abandon: every chunk's envelope at float64 with the
// query's half of each chunk's slack, and the float32 vector and row slack
// LowerBounds compares rows against. The zero value is empty; Reset builds
// it, and it never allocates.
type Envelope struct {
	n      int                     // the query's length
	m, rho [EnvelopeChunks]float64 // ChunkEnvelope per chunk
	slack  [EnvelopeChunks]float64 // κ·(|m|+ρ) + envelopeFloor per chunk
	v      [EnvelopeWidth]float32  // the query's envelope vector, as EnvelopeRow writes a row's
	eps    float64                 // the query's row slack
}

// Reset rebuilds the envelope for q.
func (e *Envelope) Reset(q Series) {
	e.n = len(q)
	e.eps = envelopeValues(q, &e.m, &e.rho, e.v[:])
	for j := range e.m {
		e.slack[j] = envelopeSlack*(math.Abs(e.m[j])+e.rho[j]) + envelopeFloor
	}
}

// LowerBounds writes into out, for every row of rows — EnvelopeWidth values
// each, as EnvelopeRow writes them — and its slack in slack, a lower bound on
// the Euclidean distance from the query to the row's series:
//
//	lb = max(0, ‖v′_q − v′_c‖·(1 − δ) − ε_q − ε_c),
//
// the float32 distance between the two envelope vectors taken in four
// accumulators. Every lb is finite and at least 0, and it is at most the
// distance ts.EuclideanSq's sum gives, rounding included, so a search that
// prunes a candidate only when its lb exceeds a distance it measured loses
// nothing.
//
// The proof. Per chunk write x = (m/√l)·1 + r with r ⟂ 1, ‖r‖ = ρ; then
// ‖x_q − x_c‖² = (m_q − m_c)² + ‖r_q − r_c‖² ≥ (m_q − m_c)² + (ρ_q − ρ_c)²,
// and summed over the chunks D = ‖q − c‖ ≥ ‖v_q − v_c‖ for the exact
// vectors. A stored value is off by less than κ/2·(|m|+ρ) of its chunk
// (envelopeSlack) plus 2⁻¹⁵⁰ when subnormal; (|m|+ρ)² ≤ 2(m²+ρ²) and
// Σⱼ(mⱼ² + ρⱼ²) = ‖x‖², so ‖v′ − v‖ ≤ κ‖x‖ + 2⁻¹⁴⁷, which ε = 2κ‖x‖ +
// rowFloor exceeds by more than 2⁻⁷³ even after its rounding to float32.
// The computed float32 root K is at most ‖v′_q − v′_c‖·(1+2⁻²⁴)⁷ + 2⁻⁷²
// (rowShrink, rowFloor), hence at most (D + ε_q + ε_c)·(1+2⁻²⁴)⁷, so
// K·(1 − δ) − ε_q − ε_c ≤ D·(1 − 2⁻²¹) − 2⁻²¹·(ε_q + ε_c); the three float64
// roundings that evaluate it add at most 3·2⁻⁵³·(D + ε_q + ε_c). The refined
// distance √EuclideanSq is at least D·(1 − (n+5)·2⁻⁵⁴) less √n·2⁻⁵³⁷ for
// squares that underflow, which the 2⁻⁹² the floors leave covers: lb stays
// below it for n < 2³¹.
//
// Overflow. A chunk whose sum or residual does not fit a float32 stores
// ±Inf (or NaN, once the float64 sum itself overflows), and a difference
// above 2⁶⁴ overflows its float32 square: either way the sum is not finite
// and the row's lb is 0, whatever the slacks. Such rows are refined, never
// pruned.
//
// On amd64 the float32 sums come from an SSE kernel (envelope_amd64.s) whose
// bits equal lowerBoundsGo's, the pure-Go loop it replaces and the kernel
// everywhere else (DESIGN §11, "The filter kernel").
func (e *Envelope) LowerBounds(rows, slack []float32, out []float64) {
	lowerBounds(e, rows, slack, out)
}

// lowerBoundsGo is LowerBounds in Go: per row, the squared differences
// summed in four float32 accumulators, lane i taking terms i, i+4, … — the
// order the SSE kernel's four lanes add in — and reduced as
// (s0+s1)+(s2+s3). Each square is rounded to float32 on its own
// (float32(d*d)), which forbids fusing it into the add.
func lowerBoundsGo(e *Envelope, rows, slack []float32, out []float64) {
	q := &e.v
	rows = rows[:len(out)*EnvelopeWidth]
	slack = slack[:len(out)]
	for i := range out {
		c := (*[EnvelopeWidth]float32)(rows[i*EnvelopeWidth:])
		var s0, s1, s2, s3 float32
		for j := 0; j < EnvelopeWidth; j += 4 {
			d0, d1, d2, d3 := q[j]-c[j], q[j+1]-c[j+1], q[j+2]-c[j+2], q[j+3]-c[j+3]
			s0 += float32(d0 * d0)
			s1 += float32(d1 * d1)
			s2 += float32(d2 * d2)
			s3 += float32(d3 * d3)
		}
		out[i] = e.rowLB((s0+s1)+(s2+s3), slack[i])
	}
}

// rowLB is the float64 tail of LowerBounds for a row whose squared
// envelope distance summed to s and whose slack is slack: 0 unless s is
// finite, else max(0, √s·(1 − δ) − ε_q − ε_c), the product rounded on its
// own so that no step is fused.
func (e *Envelope) rowLB(s, slack float32) float64 {
	if s <= math.MaxFloat32 {
		return max(float64(math.Sqrt(float64(s))*rowShrink)-e.eps-float64(slack), 0)
	}
	return 0
}

// suffix writes into suf, for the candidate whose EnvelopeRow vector is row,
// suf[j]: a lower bound on the exact squared distance over chunks j.. to the
// query (suf[EnvelopeChunks] = 0), and reports whether the bound is a number.
//
// The bound. As in LowerBounds, per chunk (m_q − m_c)² + (ρ_q − ρ_c)² is at
// most the exact chunk distance. Every value carries an error below κ·(|m|+ρ)
// of its own chunk (|m|+ρ ≥ ‖x‖, which bounds the float32 rounding and,
// through Σ|x_i| ≤ √l·‖x‖, the float64 sums), so with e = the two sides'
// κ·(|m|+ρ) plus the subnormal floor, max(0, |m_q − m_c| − e)² + max(0,
// |ρ_q − ρ_c| − e)² is a bound on the exact chunk distance; suf[j] sums them
// over chunks j.. . A caller abandons when a partial sum plus the suffix from
// the first chunk it has not started exceeds limit·envelopeGuard(n): the
// computed sum is at least the exact one times 1−(n+3)·2⁻⁵³ (each term rounds
// thrice, each addition once, all terms non-negative), and the bound's own
// evaluation rounds fewer than W+8 times, so a bound above the guard proves
// the computed sum above limit. A NaN bound — a chunk whose envelope
// overflowed — proves nothing, and the caller must fall back to the partial
// sum alone.
func (e *Envelope) suffix(row []float32, suf *[EnvelopeChunks + 1]float64) bool {
	suf[EnvelopeChunks] = 0
	for j := EnvelopeChunks - 1; j >= 0; j-- {
		mc, rc := float64(row[j]), float64(row[EnvelopeChunks+j])
		sl := e.slack[j] + envelopeSlack*(math.Abs(mc)+rc)
		dm := max(math.Abs(e.m[j]-mc)-sl, 0)
		dr := max(math.Abs(e.rho[j]-rc)-sl, 0)
		suf[j] = suf[j+1] + dm*dm + dr*dr
	}
	return !math.IsNaN(suf[0])
}

// envelopeGuard is the factor 1 + (n+64)·2⁻⁵² on the limit of an n-point
// envelope abandon (see suffix).
func envelopeGuard(n int) float64 { return 1 + float64(n+64)*0x1p-52 }

// EuclideanSqEnvelope is EuclideanSqAbandon for a query a whose envelope is
// qe and a candidate b whose EnvelopeRow vector is row. It abandons on a
// lower bound of the whole sum instead of the partial sum alone, and adds the
// same terms in the same order when it reads b at all, so a completed sum
// (ok) is bit-identical to EuclideanSq(a, b). When it gives up, the value it
// returns exceeds limit and so does the full EuclideanSq.
//
// At each look after i terms it abandons when the partial sum plus the
// suffix bound (see suffix) from the first chunk it has not started exceeds
// the guard limit·envelopeGuard(n); nothing tests the whole bound before the
// first stride, since in a search that filters on LowerBounds first that
// test ended no refinement. A NaN bound abandons nothing: the kernel falls
// back to EuclideanSqAbandon. It is the one-candidate oracle a RefineGroup's
// envelope lanes are tested against. It panics if the lengths differ, qe was
// built for another length or row is not EnvelopeWidth long.
func EuclideanSqEnvelope(a, b Series, qe *Envelope, row []float32, limit float64) (sum float64, ok bool) {
	if len(a) != len(b) || qe.n != len(a) || len(row) != EnvelopeWidth {
		panic(ErrLengthMismatch)
	}
	var suf [EnvelopeChunks + 1]float64
	if !qe.suffix(row, &suf) {
		return EuclideanSqAbandon(a, b, limit)
	}
	guard := limit * envelopeGuard(len(a))
	l := envelopeChunkLen(len(a))
	i := 0
	for ; i+abandonStride <= len(a); i += abandonStride {
		x, y := a[i:][:abandonStride], b[i:][:abandonStride]
		for j := range x {
			d := x[j] - y[j]
			sum += d * d
		}
		if lb := sum + suf[(i+abandonStride+l-1)/l]; lb > guard {
			return lb, false
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum, true
}
