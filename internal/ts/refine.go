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
// EuclideanSq. A lane gives up exactly where EuclideanSqAbandon would, and
// with the same value: at each look its partial sum is held against the
// limit.
//
// A lane that is empty or finished reads the query against itself: the
// values are in cache and its sum stays 0, so it never gives up. Lanes are
// added only before the first Refine, and a finished lane is not refilled.
// The zero value is unusable; Reset prepares it, and nothing allocates.
type RefineGroup struct {
	q     Series
	added int   // lanes added since Reset
	live  uint8 // lanes neither given up nor completed, lane j as bit j
	whole uint8 // lanes whose result is a completed sum
	i     int   // the lanes' shared position in q
	b     [GroupLanes]Series
	sum   [GroupLanes]float64 // running sums
	res   [GroupLanes]float64 // a finished lane's result
}

// Reset empties g for refinements against q.
func (g *RefineGroup) Reset(q Series) {
	g.q, g.added, g.live, g.whole, g.i = q, 0, 0, 0, 0
	for j := range GroupLanes {
		g.retire(j)
	}
}

// retire turns lane j into one that reads the query against itself.
func (g *RefineGroup) retire(j int) {
	g.b[j], g.sum[j] = g.q, 0
}

// Add puts candidate b in the next free lane and returns that lane. It
// panics if b's length differs from the query's, the group is full or its
// refinement has started.
func (g *RefineGroup) Add(b Series) (lane int) {
	if len(b) != len(g.q) || g.added == GroupLanes || g.i != 0 {
		panic(ErrLengthMismatch)
	}
	lane = g.added
	g.added++
	g.live |= 1 << lane
	g.b[lane] = b
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
	b0, b1, b2, b3 := g.b[0][:n], g.b[1][:n], g.b[2][:n], g.b[3][:n]
	s0, s1, s2, s3 := g.sum[0], g.sum[1], g.sum[2], g.sum[3]
	i := g.i
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
		if s0 > limit || s1 > limit || s2 > limit || s3 > limit {
			g.i, g.sum = i, [GroupLanes]float64{s0, s1, s2, s3}
			for j, s := range g.sum {
				if g.live&(1<<j) != 0 && s > limit {
					done |= 1 << j
					g.res[j] = s
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
// and limit, without three lanes of the query read against itself.
func (g *RefineGroup) refineLast(j int, limit float64) (done uint8) {
	q := g.q
	n := len(q)
	b := g.b[j][:n]
	s := g.sum[j]
	i := g.i
	done, g.live = 1<<j, 0
	for i <= n-abandonStride {
		for k := i; k < i+abandonStride; k++ {
			d := b[k] - q[k]
			s += d * d
		}
		i += abandonStride
		if s > limit {
			g.i, g.res[j] = i, s
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
