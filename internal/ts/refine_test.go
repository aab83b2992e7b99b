package ts

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// groupCase derives from a seed a query of n points and four candidates:
// lane 0 the partner envelopeCase builds for the query (affine copies,
// constant and cancelling chunks, far offsets), lanes 1–3 the query plus
// noise at scales 10⁻³, 10⁻¹ and 10, so that under one limit they give up at
// different strides. With overflow, lane 2's last chunk sits at ±1e200,
// where the squares overflow to +Inf.
func groupCase(seed int64, n int, overflow bool) (q Series, cs [GroupLanes]Series) {
	q, cs[0] = envelopeCase(seed, n)
	rng := rand.New(rand.NewSource(seed))
	for j, scale := range []float64{1e-3, 1e-1, 10} {
		b := make(Series, n)
		for i := range b {
			b[i] = q[i] + scale*rng.NormFloat64()
		}
		cs[j+1] = b
	}
	if overflow {
		x := chunk(cs[2], (n-1)/envelopeChunkLen(n))
		for i := range x {
			x[i] = 1e200 * float64(1-2*(i%2))
		}
	}
	return q, cs
}

// runGroup refines cs in one RefineGroup, calling Refine until no lane is
// live with the limit limits(call) gives, and returns every lane's result
// and the limit of the call that finished it. It fails the test if a call
// makes no progress or reports a lane that was not live.
func runGroup(t *testing.T, q Series, cs []Series, limits func(call int) float64) (sums []float64, ok []bool, at []float64) {
	t.Helper()
	var g RefineGroup
	g.Reset(q)
	for j, b := range cs {
		if lane := g.Add(b); lane != j {
			t.Fatalf("candidate %d went to lane %d", j, lane)
		}
	}
	sums, ok, at = make([]float64, len(cs)), make([]bool, len(cs)), make([]float64, len(cs))
	for call := 0; g.Live() != 0; call++ {
		live, limit := g.Live(), limits(call)
		done := g.Refine(limit)
		if done == 0 || done&^live != 0 || g.Live() != live&^done {
			t.Fatalf("call %d: live %04b, done %04b, live after %04b", call, live, done, g.Live())
		}
		for ; done != 0; done &= done - 1 {
			j := bits.TrailingZeros8(done)
			sums[j], ok[j] = g.Result(j)
			at[j] = limit
		}
	}
	if done := g.Refine(0); done != 0 {
		t.Fatalf("a finished group reported lanes %04b", done)
	}
	return sums, ok, at
}

// checkGroup refines cs in one group under a fixed limit and holds every
// lane to its one-candidate oracle, EuclideanSqAbandon, bit for bit: a
// completed lane's sum is EuclideanSq's, and a lane gives up only where the
// oracle does, where the full sum exceeds the limit. It returns how many
// lanes gave up.
func checkGroup(t *testing.T, label string, q Series, cs []Series, limit float64) (abandoned int) {
	t.Helper()
	sums, ok, _ := runGroup(t, q, cs, func(int) float64 { return limit })
	for j, b := range cs {
		wantSum, wantOK := EuclideanSqAbandon(q, b, limit)
		if ok[j] != wantOK || math.Float64bits(sums[j]) != math.Float64bits(wantSum) {
			t.Fatalf("%s lane %d limit %g: (%v, %v), alone (%v, %v)", label, j, limit, sums[j], ok[j], wantSum, wantOK)
		}
		full := EuclideanSq(q, b)
		if ok[j] && math.Float64bits(sums[j]) != math.Float64bits(full) {
			t.Fatalf("%s lane %d: completed with %v, EuclideanSq says %v", label, j, sums[j], full)
		}
		if !ok[j] {
			if !(sums[j] > limit) || !(full > limit) {
				t.Fatalf("%s lane %d limit %g: gave up at %v with full sum %v", label, j, limit, sums[j], full)
			}
			abandoned++
		}
	}
	return abandoned
}

// TestRefineGroupBits: at the lengths the served tiers hold and the edges of
// the stride (below one, exactly one, one past, ragged), every lane of a
// group — one to four lanes, the rest empty — gives its one-candidate
// oracle's result bit for bit under the limits a search hands it: 0, +Inf,
// each lane's exact sum (which must complete), the float below it, and
// fractions that end the lanes at different strides; also with a lane whose
// squares overflow. A limit that tightens between calls binds the lanes
// still running.
func TestRefineGroupBits(t *testing.T) {
	abandoned, spread := 0, 0
	for _, n := range []int{1, 15, 16, 17, 255, 256, 1000, 1024} {
		for seed := int64(0); seed < 12; seed++ {
			overflow := seed%3 == 2
			q, cs := groupCase(seed*31+int64(n), n, overflow)
			lanes := 1 + int(seed%GroupLanes)
			label := fmt.Sprintf("n=%d seed=%d lanes=%d overflow=%v", n, seed, lanes, overflow)
			limits := []float64{0, math.Inf(1)}
			for _, b := range cs[:lanes] {
				full := EuclideanSq(q, b)
				limits = append(limits, full, math.Nextafter(full, 0), full/2, full*0.9)
			}
			for _, limit := range limits {
				abandoned += checkGroup(t, label, q, cs[:lanes], limit)
			}
			// Tighten the limit on every call: a lane gives up only
			// above the limit of the call that ends it.
			full := EuclideanSq(q, cs[0])
			sums, ok, at := runGroup(t, q, cs[:lanes], func(call int) float64 { return full * math.Pow(0.8, float64(call)) })
			for j, b := range cs[:lanes] {
				if ok[j] && math.Float64bits(sums[j]) != math.Float64bits(EuclideanSq(q, b)) {
					t.Fatalf("%s tightening lane %d: completed with %v, EuclideanSq says %v", label, j, sums[j], EuclideanSq(q, b))
				}
				if !ok[j] && !(sums[j] > at[j] && EuclideanSq(q, b) > at[j]) {
					t.Fatalf("%s tightening lane %d: gave up at %v under limit %v", label, j, sums[j], at[j])
				}
			}
			// Under a tenth of the closest lane's sum, the lanes give up
			// one look after another.
			limit := EuclideanSq(q, cs[1]) / 10
			var g RefineGroup
			g.Reset(q)
			for _, b := range cs[:lanes] {
				g.Add(b)
			}
			looks := map[int]bool{}
			for g.Live() != 0 {
				if done := g.Refine(limit); done&^g.whole != 0 {
					looks[g.i] = true
				}
			}
			if len(looks) > 1 {
				spread++
			}
		}
	}
	if abandoned == 0 {
		t.Fatal("no lane gave up: the property was only checked on completed sums")
	}
	if spread == 0 {
		t.Fatal("no group had lanes give up at different strides")
	}
	var g RefineGroup
	g.Reset(Series{1, 2})
	if g.Live() != 0 || g.Refine(1) != 0 {
		t.Fatal("an empty group reported live lanes")
	}
	q := make(Series, 64)
	for name, call := range map[string]func(){
		"a candidate of another length": func() { g.Reset(q); g.Add(q[:63]) },
		"a fifth lane": func() {
			g.Reset(q)
			for range GroupLanes + 1 {
				g.Add(q)
			}
		},
		"a lane added after the first Refine": func() { g.Reset(q); g.Add(q); g.Add(q); g.Refine(0); g.Add(q) },
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

func FuzzRefineGroup(f *testing.F) {
	f.Add(int64(1), uint16(256), uint8(4), 0.5)
	f.Add(int64(2), uint16(1024), uint8(4), 0.999999)
	f.Add(int64(3), uint16(17), uint8(2), 1.0)
	f.Add(int64(4), uint16(1000), uint8(3), 0.0)
	f.Add(int64(5), uint16(15), uint8(1), 2.0)
	f.Add(int64(6), uint16(512), uint8(4), 0.01)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, lanes uint8, scale float64) {
		if math.IsNaN(scale) {
			t.Skip()
		}
		q, cs := groupCase(seed, 1+int(n%2048), seed%4 == 0)
		k := 1 + int(lanes)%GroupLanes
		label := fmt.Sprintf("seed=%d n=%d lanes=%d", seed, len(q), k)
		checkGroup(t, label, q, cs[:k], scale*EuclideanSq(q, cs[k-1]))
	})
}

// BenchmarkRefineGroup: four candidates refined to completion one after the
// other (seq, EuclideanSqAbandon) and in one RefineGroup (group), at the
// flat tier's served lengths: the kernel speed-up without the search around
// it.
func BenchmarkRefineGroup(b *testing.B) {
	for _, n := range []int{256, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		q := make(Series, n)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		var cs [GroupLanes]Series
		for j := range cs {
			cs[j] = make(Series, n)
			for i := range cs[j] {
				cs[j][i] = q[i] + rng.NormFloat64()
			}
		}
		var sink float64
		b.Run(fmt.Sprintf("%d/seq", n), func(b *testing.B) {
			for range b.N {
				for _, c := range cs {
					s, _ := EuclideanSqAbandon(q, c, math.Inf(1))
					sink += s
				}
			}
		})
		b.Run(fmt.Sprintf("%d/group", n), func(b *testing.B) {
			var g RefineGroup
			for range b.N {
				g.Reset(q)
				for _, c := range cs {
					g.Add(c)
				}
				for g.Live() != 0 {
					g.Refine(math.Inf(1))
				}
				s, _ := g.Result(0)
				sink += s
			}
		})
		_ = sink
	}
}
