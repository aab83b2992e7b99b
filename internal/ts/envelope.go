package ts

import "math"

// EnvelopeChunks is W, the number of chunks (frames) of a series' envelope:
// an n-point series is cut into chunks of ⌈n/W⌉ points, the last non-empty
// one shorter when W does not divide n, and the chunks past the series' end
// (n < W, or a ragged tail) are empty with an all-zero envelope.
const EnvelopeChunks = 8

// chunkValues is how many values a chunk's envelope keeps (chunkEnvelopes):
// its coordinates on the orthonormal discrete polynomials of degree 0, 1 and
// 2 over the chunk, and its residual norm.
const chunkValues = 4

// EnvelopeWidth is the length of an envelope vector: chunk j's values are
// v[4j : 4j+4] = (a₀, a₁, a₂, ρ) of chunk j.
const EnvelopeWidth = chunkValues * EnvelopeChunks

// envelopeChunkLen returns the chunk length of an n-point series' envelope.
func envelopeChunkLen(n int) int { return (n + EnvelopeChunks - 1) / EnvelopeChunks }

// envelopeSlack is κ, the relative slack of every envelope value (see
// LowerBounds). A value stored as float32 is off by at most 2⁻²⁴ of its
// size; chunkEnvelopes' own float64 error is below (7l+110)·2⁻⁵³ of the
// chunk's norm, under 2⁻²⁴ for any series of fewer than 2²⁹ points
// (l < 2²⁶). κ/2 = 2⁻²³ is their sum's bound.
const envelopeSlack = 0x1p-22

// rowFloor is the absolute part of a row's slack (EnvelopeRow): it covers
// the subnormal rounding of the stored values (√EnvelopeWidth·2⁻¹⁵⁰ <
// 2⁻¹⁴⁷) and of LowerBounds' float32 squares, each off by up to 2⁻¹⁵⁰ below
// 2⁻¹²⁶, which moves the root of the EnvelopeWidth-term sum by less than
// √(EnvelopeWidth+1)·2⁻⁷⁵ < 2⁻⁷².
const rowFloor = 0x1p-72

// rowShrink is 1 − δ, LowerBounds' factor on the float32 distance. δ = 2⁻²⁰
// covers the kernel's rounding — each of the EnvelopeWidth squares reaches
// the sum through at most 13 float32 roundings and the root through one
// float64 one, so the computed root is within (1+2⁻²⁴)⁷ of the exact one —
// with 2⁻²¹ to spare, and the spare covers the three float64 roundings after
// it and the refine sum's own (n+3)·2⁻⁵³ (n < 2²⁹; see LowerBounds).
const rowShrink = 1 - 0x1p-20

// chunkEnvelopes writes into c the envelopes of len(c) consecutive chunks
// of l ≥ 1 points at the start of x, in closed form with no basis table:
// with d = t − (l−1)/2 and σ² = (l²−1)/12 the orthonormal discrete
// polynomials of degree 0–2 are
//
//	u₀ = 1/√l,  u₁ = d/√(l(l²−1)/12),  u₂ = (d² − σ²)/√(l(l²−1)(l²−4)/180)
//
// (u₁ = 0 for l < 2, u₂ = 0 for l < 3), and a chunk's envelope is its
// coordinates aᵢ = ⟨x, uᵢ⟩ and its residual norm ρ = ‖x − Σ aᵢuᵢ‖. Two
// passes, each in four lanes (lane k takes the points 4i+k): momentLanes
// takes the moments Σx, Σdx and Σd²x, and residualLanes the residual against
// the fitted quadratic — rather than ‖x‖² − Σaᵢ², which cancels when the
// chunk is nearly a quadratic — which each lane steps along by differences:
// the fit f at its next point, the step g to the point after that, and g's
// own constant step 32γ. The kernels take the first l&^3 points of every
// chunk, and the last l mod 4, one a lane, are added here.
//
// The error. Write F = ‖x‖ of a chunk and u = 2⁻⁵³. The moments carry at
// most (l+1)u·Σ|dᵏx| (d is exact), and Σ|dᵏx| ≤ ‖dᵏ‖·F; scaled by the basis
// norms, a₀ and a₁ are within (l+4)u·F, and a₂, whose numerator Σd²x − σ²Σx
// cancels, within (3.2l + 17)u·F (‖d²‖ + σ²√l is at most 3.2 times u₂'s
// norm, at l = 3). The closed form is the exact basis, so the computed
// coordinates are those of a basis orthonormal to within about l·2⁻⁵² of the
// chunk's norm. A lane's running fit gathers one rounding of its step per
// point, and its step one of 32γ, so after the l/4 points of a lane the fit
// is off by less than (l²/32)·u·max|g| + (l/4)·u·max|f| ≤ 3.4√l·u·F a point,
// 3.4l·u·F in norm; by the triangle inequality the residual is within
// (7l + 110)u·F of ‖x − Σ aᵢuᵢ‖, its own sum's (l/2 + 4)u·ρ included. Every
// value is within (7l + 110)·2⁻⁵³·F of its exact value.
func chunkEnvelopes(x Series, l int, c [][chunkValues]float64) {
	var lanes [EnvelopeChunks]laneState
	ls := lanes[:len(c)]
	lf := float64(l)
	h := (lf - 1) / 2
	body := l &^ 3
	momentLanes(x, l, -h, ls)

	sig2 := (lf*lf - 1) / 12
	irl := 1 / math.Sqrt(lf)
	var in1, in2 float64 // 1/‖d‖ and 1/‖d² − σ²‖, 0 where that polynomial vanishes
	if l >= 2 {
		in1 = 1 / math.Sqrt(lf*sig2)
	}
	if l >= 3 {
		in2 = 1 / math.Sqrt(lf*sig2*(lf*lf-4)/15)
	}
	for j := range ls {
		s := &ls[j]
		d := float64(body) - h
		for k, v := range x[j*l+body : (j+1)*l] {
			t := float64(d * v)
			s[k] += v
			s[4+k] += t
			s[8+k] += float64(d * t)
			d++
		}
		sx, sdx, sddx := (s[0]+s[1])+(s[2]+s[3]), (s[4]+s[5])+(s[6]+s[7]), (s[8]+s[9])+(s[10]+s[11])
		c[j] = [chunkValues]float64{sx * irl, sdx * in1, (sddx - sig2*sx) * in2}
		// The fit α + βd + γd² = Σ aᵢuᵢ at d.
		beta, gamma := c[j][1]*in1, c[j][2]*in2
		alpha := c[j][0]*irl - gamma*sig2
		for k := range 4 {
			d := float64(k) - h
			s[k] = alpha + d*(beta+gamma*d)
			s[4+k] = 4 * (beta + gamma*(2*d+4))
		}
		s[8], s[9] = 32*gamma, 32*gamma
	}
	residualLanes(x, l, ls)
	for j := range ls {
		s := &ls[j]
		for k, v := range x[j*l+body : (j+1)*l] {
			e := v - s[k]
			s[8+k] += float64(e * e)
		}
		c[j][3] = math.Sqrt((s[8] + s[9]) + (s[10] + s[11]))
	}
}

// laneState is one chunk's four lanes between chunkEnvelopes' kernels. After
// momentLanes it holds each lane's Σx, Σdx and Σd²x, lane k at k, 4+k and
// 8+k. Before residualLanes it holds each lane's fit f at its next point (k)
// and step g (4+k), and the steps' own step twice (8, 9); after it, each
// lane's f advanced past the kernel's points (k), g as it was, and the
// lane's Σ(x − f)² (8+k).
type laneState [12]float64

// momentLanesGo is momentLanes in Go: for each chunk j of len(lanes), the
// first l&^3 of x[j·l:]'s points, lane k at d+k, d+k+4, … — the lanes the
// SSE2 kernel keeps two to a register — each product rounded on its own.
func momentLanesGo(x Series, l int, d float64, lanes []laneState) {
	for j := range lanes {
		c := x[j*l:][:l&^3]
		var s laneState
		e := [4]float64{d, d + 1, d + 2, d + 3}
		for i := 0; i < len(c); i += 4 {
			for k, v := range c[i : i+4] {
				t := float64(e[k] * v)
				s[k] += v
				s[4+k] += t
				s[8+k] += float64(e[k] * t)
				e[k] += 4
			}
		}
		lanes[j] = s
	}
}

// residualLanesGo is residualLanes in Go: for each chunk j of len(lanes),
// over the first l&^3 of x[j·l:]'s points, each lane adds (x − f)², then
// steps f by g and g by the lanes' common step.
func residualLanesGo(x Series, l int, lanes []laneState) {
	for j := range lanes {
		c := x[j*l:][:l&^3]
		s := &lanes[j]
		var r [4]float64
		g, dd := [4]float64(s[4:8]), s[8]
		for i := 0; i < len(c); i += 4 {
			for k, v := range c[i : i+4] {
				e := v - s[k]
				r[k] += float64(e * e)
				s[k] += g[k]
				g[k] += dd
			}
		}
		copy(s[8:], r[:])
	}
}

// envelopeValues writes the envelope vector of x — every chunk's four values
// (chunkEnvelopes) rounded to float32, chunk after chunk, zeros for the
// empty chunks — into v, which must hold EnvelopeWidth values, and returns
// the row slack ε = 2κ‖x‖ + rowFloor, ‖x‖² being the sum of the values'
// squares at float64 (each chunk's squared norm, by Pythagoras). While every
// value of v fits a float32, ‖x‖² is far from overflowing; once one does
// not, ε may be +Inf or NaN, and LowerBounds gives the row 0 whatever ε is.
func envelopeValues(x Series, v []float32) (eps float64) {
	v = v[:EnvelopeWidth]
	var c [EnvelopeChunks][chunkValues]float64
	if n := len(x); n > 0 {
		l := envelopeChunkLen(n)
		full := n / l
		chunkEnvelopes(x, l, c[:full])
		if rest := n - full*l; rest > 0 {
			chunkEnvelopes(x[full*l:], rest, c[full:full+1])
		}
	}
	var n2 [chunkValues]float64 // ‖x‖² in four sums, one a value of the chunks
	for j, cj := range c {
		vj := v[j*chunkValues:][:chunkValues]
		for i, y := range cj {
			vj[i] = float32(y)
			n2[i] += y * y
		}
	}
	return 2*envelopeSlack*math.Sqrt((n2[0]+n2[1])+(n2[2]+n2[3])) + rowFloor
}

// EnvelopeRow writes the envelope vector of x (envelopeValues) into v, which
// must hold EnvelopeWidth values, and returns the row's slack ε (see
// LowerBounds), rounded to float32: the stored side of LowerBounds.
func EnvelopeRow(x Series, v []float32) (slack float32) {
	return float32(envelopeValues(x, v))
}

// Envelope is a query's side of LowerBounds: the float32 vector and the row
// slack LowerBounds compares rows against, as EnvelopeRow builds a row's. The
// zero value is empty; Reset builds it, and it never allocates.
type Envelope struct {
	v   [EnvelopeWidth]float32
	eps float64
}

// Reset rebuilds the envelope for q.
func (e *Envelope) Reset(q Series) { e.eps = envelopeValues(q, e.v[:]) }

// LowerBounds writes into out, for every row of rows — EnvelopeWidth values
// each, as EnvelopeRow writes them — and its slack in slack, a lower bound on
// the Euclidean distance from the query to the row's series:
//
//	lb = max(0, ‖v′_q − v′_c‖·(1 − δ) − ε_q − ε_c),
//
// the float32 distance between the two envelope vectors taken in four
// accumulators. Every lb is finite and at least 0 (+0, never −0 or NaN), and
// it is at most the distance ts.EuclideanSq's sum gives, rounding included,
// so a search that prunes a candidate only when its lb exceeds a distance it
// measured loses nothing.
//
// The proof. Per chunk write x = Σᵢ aᵢuᵢ + r, the orthogonal projection on
// the chunk's discrete polynomials u₀, u₁, u₂ (chunkEnvelopes) and a residual
// r ⟂ uᵢ with ‖r‖ = ρ; then ‖x_q − x_c‖² = Σᵢ(a_q,i − a_c,i)² + ‖r_q − r_c‖²
// ≥ Σᵢ(a_q,i − a_c,i)² + (ρ_q − ρ_c)² by the reverse triangle inequality, and
// summed over the chunks D = ‖q − c‖ ≥ ‖v_q − v_c‖ for the exact vectors. A
// stored value is off by less than κ/2 of its chunk's norm (envelopeSlack:
// the float64 basis is orthonormal only to within about l·2⁻⁵², and the
// float32 rounding adds 2⁻²⁴) plus 2⁻¹⁵⁰ when subnormal; a chunk's four
// values are then off by less than κ‖x_j‖ + 2⁻¹⁴⁹ together, and Σⱼ‖x_j‖² =
// ‖x‖², so ‖v′ − v‖ ≤ κ‖x‖ + 2⁻¹⁴⁷, which ε = 2κ‖x‖ + rowFloor exceeds by
// more than 2⁻⁷³ even after its rounding to float32. The computed float32
// root K is at most ‖v′_q − v′_c‖·(1+2⁻²⁴)⁷ + 2⁻⁷² (rowShrink, rowFloor),
// hence at most (D + ε_q + ε_c)·(1+2⁻²⁴)⁷, so K·(1 − δ) − ε_q − ε_c ≤
// D·(1 − 2⁻²¹) − 2⁻²¹·(ε_q + ε_c); the three float64 roundings that evaluate
// it add at most 3·2⁻⁵³·(D + ε_q + ε_c). The refined distance √EuclideanSq
// is at least D·(1 − (n+5)·2⁻⁵⁴) less √n·2⁻⁵³⁷ for squares that underflow,
// which the 2⁻⁹² the floors leave covers: lb stays below it for n < 2²⁹.
//
// Overflow. A chunk whose coordinates or residual do not fit a float32
// stores ±Inf (or NaN, once a float64 moment itself overflows), and a
// difference above 2⁶⁴ overflows its float32 square: either way the sum is
// not finite and the row's lb is 0, whatever the slacks. Such rows are
// refined, never pruned.
//
// On amd64 the bounds come from an SSE kernel (envelope_amd64.s) whose bits
// equal lowerBoundsGo's, the pure-Go loop it replaces and the kernel
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
// finite, else lb = √s·(1 − δ) − ε_q − ε_c, the product rounded on its own so
// that no step is fused. It returns lb only when lb > 0, else +0: a −0 or a
// NaN lb (a NaN slack) gives +0, exactly as the kernel's MAXSD against +0
// does, so the filter never yields NaN — Flat marks its refined slots NaN and
// relies on that.
func (e *Envelope) rowLB(s, slack float32) float64 {
	if s <= math.MaxFloat32 {
		if lb := float64(math.Sqrt(float64(s))*rowShrink) - e.eps - float64(slack); lb > 0 {
			return lb
		}
	}
	return 0
}
