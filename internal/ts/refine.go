package ts

import "math/bits"

// GroupLanes is how many candidates a RefineGroup refines at once.
const GroupLanes = 4

// RefineGroup refines up to GroupLanes candidates against one query at once.
// The lanes share one position in the query: each term loads q[i] once and
// adds the square of bⱼ[i] − q[i] into four independent sums, so four chains
// of dependent adds are in flight where EuclideanSqAbandon keeps one and
// waits on its latency. A lane's square equals EuclideanSq's (q[i] − b[i])²
// bit for bit — a difference and its negation round alike — and it adds the
// same terms in the same order, so a completed lane's sum is bit-identical to
// EuclideanSq. A lane gives up exactly where EuclideanSqAbandon would, or, in
// a group reset with the query's envelope, where EuclideanSqEnvelope would,
// and with the same value: at each look its partial sum plus its suffix bound
// from the first chunk not yet started is held against its guard, the limit
// for the plain abandon (whose suffix is all zeros) and the limit times
// envelopeGuard for the envelope one.
//
// A lane that is empty or finished reads the query against itself: the
// values are in cache, its sum stays 0 and its suffix all zeros, so it never
// gives up. Lanes are added only before the first Refine, and a finished lane
// is not refilled. The zero value is unusable; Reset prepares it, and nothing
// allocates.
type RefineGroup struct {
	q     Series
	env   *Envelope // nil: the lanes abandon on the partial sum alone
	added int       // lanes added since Reset
	live  uint8     // lanes neither given up nor completed, lane j as bit j
	whole uint8     // lanes whose result is a completed sum
	i     int       // the lanes' shared position in q
	c     int       // the first envelope chunk the lanes have not started
	next  int       // where chunk c starts
	b     [GroupLanes]Series
	sum   [GroupLanes]float64 // running sums
	res   [GroupLanes]float64 // a finished lane's result
	scale [GroupLanes]float64 // a lane's guard is limit·scale
	suf   [GroupLanes][EnvelopeChunks + 1]float64
}

// Reset empties g for refinements against q. With env, which must have been
// built for q, the lanes abandon on the envelope's suffix bound
// (EuclideanSqEnvelope); with nil, on the partial sum alone
// (EuclideanSqAbandon).
func (g *RefineGroup) Reset(q Series, env *Envelope) {
	if env != nil && env.n != len(q) {
		panic(ErrLengthMismatch)
	}
	g.q, g.env, g.added, g.live, g.whole = q, env, 0, 0, 0
	g.i, g.c, g.next = 0, 0, 0
	for j := range GroupLanes {
		g.retire(j)
	}
}

// retire turns lane j into one that reads the query against itself.
func (g *RefineGroup) retire(j int) {
	g.b[j], g.sum[j], g.scale[j], g.suf[j] = g.q, 0, 1, [EnvelopeChunks + 1]float64{}
}

// Add puts candidate b, whose EnvelopeRow vector is row (read only in a group
// reset with an envelope), in the next free lane and returns that lane. It
// panics if b's length differs from the query's, the row is not
// EnvelopeWidth long, the group is full or its refinement has started.
func (g *RefineGroup) Add(b Series, row []float32) (lane int) {
	if len(b) != len(g.q) || g.added == GroupLanes || g.i != 0 {
		panic(ErrLengthMismatch)
	}
	lane = g.added
	g.added++
	g.live |= 1 << lane
	g.b[lane] = b
	if g.env != nil {
		if len(row) != EnvelopeWidth {
			panic(ErrLengthMismatch)
		}
		// A NaN bound (an overflowed chunk) proves nothing: the lane keeps
		// the zero suffix and plain guard, as EuclideanSqEnvelope falls
		// back to EuclideanSqAbandon.
		if g.env.suffix(row, &g.suf[lane]) {
			g.scale[lane] = envelopeGuard(len(g.q))
		} else {
			g.suf[lane] = [EnvelopeChunks + 1]float64{}
		}
	}
	return lane
}

// Live returns the lanes still being refined, lane j as bit j.
func (g *RefineGroup) Live() uint8 { return g.live }

// Result returns what a finished lane ended with: when it completed (ok),
// the sum, bit-identical to EuclideanSq; otherwise the value it gave up at,
// which exceeds the limit it was refined under, and so does the full sum.
func (g *RefineGroup) Result(lane int) (sum float64, ok bool) {
	return g.res[lane], g.whole&(1<<lane) != 0
}

// Refine advances the live lanes under limit until at least one of them gives
// up or all of them complete, and returns the lanes that finished (Result).
// Lanes that give up at the same look finish together, and so do lanes that
// complete: they share a position. A caller passes its current limit on every
// call, so a bound that tightened since the last one holds for the lanes
// still running. Lengths below one stride, and the ragged tail past the last
// full one, complete sequentially per lane; a lone live lane runs without the
// others' work (refineLast).
func (g *RefineGroup) Refine(limit float64) (done uint8) {
	if g.live == 0 {
		return 0
	}
	if g.live&(g.live-1) == 0 {
		return g.refineLast(bits.TrailingZeros8(g.live), limit)
	}
	q := g.q
	n := len(q)
	l := envelopeChunkLen(n)
	b0, b1, b2, b3 := g.b[0][:n], g.b[1][:n], g.b[2][:n], g.b[3][:n]
	s0, s1, s2, s3 := g.sum[0], g.sum[1], g.sum[2], g.sum[3]
	g0, g1, g2, g3 := limit*g.scale[0], limit*g.scale[1], limit*g.scale[2], limit*g.scale[3]
	i, c, next := g.i, g.c, g.next
	for i <= n-abandonStride {
		// Two terms a trip. The difference is taken as b[k] − q[k], so it
		// overwrites the value it loads instead of a copy of q[k].
		for k := i; k < i+abandonStride; k += 2 {
			v := q[k]
			d0, d1, d2, d3 := b0[k]-v, b1[k]-v, b2[k]-v, b3[k]-v
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
			v = q[k+1]
			d0, d1, d2, d3 = b0[k+1]-v, b1[k+1]-v, b2[k+1]-v, b3[k+1]-v
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		i += abandonStride
		for next < i {
			c, next = c+1, next+l
		}
		if lb0, lb1, lb2, lb3 := s0+g.suf[0][c], s1+g.suf[1][c], s2+g.suf[2][c], s3+g.suf[3][c]; lb0 > g0 || lb1 > g1 || lb2 > g2 || lb3 > g3 {
			g.i, g.c, g.next, g.sum = i, c, next, [GroupLanes]float64{s0, s1, s2, s3}
			for j, lb := range [GroupLanes]float64{lb0, lb1, lb2, lb3} {
				if g.live&(1<<j) != 0 && lb > limit*g.scale[j] {
					done |= 1 << j
					g.res[j] = lb
					g.retire(j)
				}
			}
			g.live &^= done
			return done
		}
	}
	g.i, g.sum = n, [GroupLanes]float64{s0, s1, s2, s3}
	for j := range GroupLanes {
		if g.live&(1<<j) != 0 {
			g.res[j] = tail(q, g.b[j], i, g.sum[j])
		}
	}
	done, g.whole, g.live = g.live, g.live, 0
	return done
}

// refineLast is Refine for lane j, the only live one: the same terms, looks
// and guard, without three lanes of the query read against itself.
func (g *RefineGroup) refineLast(j int, limit float64) (done uint8) {
	q := g.q
	n := len(q)
	b := g.b[j][:n]
	l := envelopeChunkLen(n)
	s, guard, suf := g.sum[j], limit*g.scale[j], &g.suf[j]
	i, c, next := g.i, g.c, g.next
	done, g.live = 1<<j, 0
	for i <= n-abandonStride {
		for k := i; k < i+abandonStride; k++ {
			d := b[k] - q[k]
			s += d * d
		}
		i += abandonStride
		for next < i {
			c, next = c+1, next+l
		}
		if lb := s + suf[c]; lb > guard {
			g.i, g.res[j] = i, lb
			g.retire(j)
			return done
		}
	}
	g.i, g.res[j], g.whole = n, tail(q, b, i, s), done
	return done
}

// tail adds the terms of q and b from i on to sum, in order.
func tail(q, b Series, i int, sum float64) float64 {
	for ; i < len(q); i++ {
		d := q[i] - b[i]
		sum += d * d
	}
	return sum
}
