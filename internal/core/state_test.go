package core

import (
	"math"
	"math/rand"
	"testing"

	"sapla/internal/pqueue"
	"sapla/internal/repr"
	"sapla/internal/segment"
	"sapla/internal/ts"
)

// initialize is Algorithm 4.2 on a fresh state.
func initialize(c ts.Series, nSeg int) *state {
	st := &state{c: c, p: ts.NewPrefix(c), splits: new(splitMemo)}
	st.initialize(nSeg, pqueue.NewMinHeap[struct{}]())
	return st
}

// checkState verifies the structural invariants of a working segmentation:
// contiguous coverage of [0, n), least-squares fits per segment,
// non-negative bounds, and cached merge areas that are still current.
func checkState(t *testing.T, st *state) {
	t.Helper()
	if len(st.segs) == 0 {
		t.Fatal("empty state")
	}
	next := 0
	for i, g := range st.segs {
		if g.start != next {
			t.Fatalf("segment %d starts at %d, want %d", i, g.start, next)
		}
		if g.end < g.start {
			t.Fatalf("segment %d inverted: [%d,%d]", i, g.start, g.end)
		}
		if g.beta < 0 || math.IsNaN(g.beta) {
			t.Fatalf("segment %d beta = %v", i, g.beta)
		}
		want := segment.FitSlice(st.c[g.start : g.end+1])
		if math.Abs(g.line.A-want.A) > 1e-6*(1+math.Abs(want.A)) ||
			math.Abs(g.line.B-want.B) > 1e-6*(1+math.Abs(want.B)) {
			t.Fatalf("segment %d line %+v is not the least-squares fit %+v", i, g.line, want)
		}
		if g.areaOK && i+1 < len(st.segs) {
			b := st.segs[i+1]
			merged := segment.Merge(g.line, g.len(), b.line, b.len())
			if area := segment.ReconstructionArea(merged, g.line, g.len(), b.line, b.len()); math.Float64bits(g.area) != math.Float64bits(area) {
				t.Fatalf("pair %d: cached merge area %v is stale, want %v", i, g.area, area)
			}
		}
		next = g.end + 1
	}
	if next != len(st.c) {
		t.Fatalf("segments cover [0,%d), series has %d points", next, len(st.c))
	}
}

func TestStateInvariantsUnderRandomOps(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randWalk(seed+2000, 120+rng.Intn(200))
		st := initialize(c, 6)
		checkState(t, st)
		for op := 0; op < 40; op++ {
			for i := 0; i+1 < st.size(); i++ {
				st.mergeArea(i) // fill every cache the next op must clear
			}
			switch {
			case rng.Intn(2) == 0 && st.size() > 1:
				st.mergePair(rng.Intn(st.size() - 1))
			default:
				// Split a random splittable segment, if any.
				cands := make([]int, 0, st.size())
				for i, g := range st.segs {
					if g.len() >= 2 {
						cands = append(cands, i)
					}
				}
				if len(cands) == 0 {
					continue
				}
				st.splitSeg(cands[rng.Intn(len(cands))])
			}
			checkState(t, st)
		}
	}
}

func TestAdjustToCountFromAnyState(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randWalk(seed+3000, 150)
		for _, target := range []int{1, 2, 5, 10, 30} {
			st := initialize(c, 4)
			st.adjustToCount(target)
			checkState(t, st)
			if st.size() != target {
				t.Fatalf("seed %d: size %d, want %d", seed, st.size(), target)
			}
		}
	}
}

func TestMergeAreaMatchesDefinition(t *testing.T) {
	c := randWalk(4000, 100)
	st := initialize(c, 5)
	for i := 0; i+1 < st.size(); i++ {
		a, b := st.segs[i], st.segs[i+1]
		merged := segment.Merge(a.line, a.len(), b.line, b.len())
		want := segment.ReconstructionArea(merged, a.line, a.len(), b.line, b.len())
		if got := st.mergeArea(i); math.Abs(got-want) > 1e-9 {
			t.Fatalf("pair %d: mergeArea %v != %v", i, got, want)
		}
	}
}

func TestGreedyBoundaryRespectsLimits(t *testing.T) {
	c := randWalk(5000, 200)
	st := initialize(c, 4)
	st.adjustToCount(4)
	for i := 0; i+1 < st.size(); i++ {
		for _, dir := range []int{+1, -1} {
			cut, _ := st.greedyBoundary(i, dir)
			left, right := st.segs[i], st.segs[i+1]
			if cut < left.start+1 && cut != left.end {
				t.Fatalf("cut %d leaves left segment under 2 points", cut)
			}
			if cut > right.end-2 && cut != left.end {
				t.Fatalf("cut %d leaves right segment under 2 points", cut)
			}
		}
	}
}

func TestMoveEndpointsNeverIncreasesTotalBeta(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := randWalk(seed+6000, 250)
		st := initialize(c, 5)
		st.adjustToCount(5)
		// Normalise betas to the movement bound so the comparison is
		// apples-to-apples.
		for i := range st.segs {
			g := &st.segs[i]
			g.beta = st.betaApprox(g.start, g.end+1, g.line)
		}
		for i := 0; i+1 < st.size(); i++ {
			st.mergeArea(i) // checkState below finds any the moves left stale
		}
		before := st.totalBeta()
		st.moveEndpoints(pqueue.NewMaxHeap[int]())
		after := st.totalBeta()
		if after > before+1e-9 {
			t.Fatalf("seed %d: endpoint movement raised β: %v → %v", seed, before, after)
		}
		checkState(t, st)
	}
}

// splitBits is a split outcome as bits, for exact comparison.
func splitBits(sp split) [7]uint64 {
	return [7]uint64{uint64(sp.cut),
		math.Float64bits(sp.left.A), math.Float64bits(sp.left.B),
		math.Float64bits(sp.right.A), math.Float64bits(sp.right.B),
		math.Float64bits(sp.betaL), math.Float64bits(sp.betaR)}
}

// TestSplitMemoHoldsOnlyTheCurrentSeries: after each reduction on a warm
// Reducer, every outcome in the split memo is what bestSplit computes on the
// series just reduced, so a split of the previous series — same window, same
// line bits or not — can never answer for this one.
func TestSplitMemoHoldsOnlyTheCurrentSeries(t *testing.T) {
	for _, cfg := range []SAPLA{{}, {ExactBounds: true}} {
		r := NewReducerFor(cfg)
		var dst repr.Linear
		held := 0
		for i, c := range familySeries(256, 2) {
			var err error
			if dst, err = r.ReduceInto(dst, c, 12); err != nil {
				t.Fatal(err)
			}
			st := &state{c: c, p: &r.prefix, exact: cfg.ExactBounds}
			m := &r.splits
			for j, k := range m.keys[:m.n] {
				g := seg{line: segment.Line{A: math.Float64frombits(k.a), B: math.Float64frombits(k.b)}, start: k.start, end: k.end}
				if want := st.bestSplit(g); splitBits(m.vals[j]) != splitBits(want) {
					t.Fatalf("%+v series %d: memo holds %+v for [%d,%d], bestSplit gives %+v", cfg, i, m.vals[j], k.start, k.end, want)
				}
			}
			held += m.n
		}
		if held == 0 {
			t.Fatalf("%+v: no reduction split anything", cfg)
		}
	}
}

// TestSplitMemoKeysOnTheLine: a window split under one line does not answer
// for the same window under another. A merge's line and the window's own fit
// differ in their last bits, and with them the children's β.
func TestSplitMemoKeysOnTheLine(t *testing.T) {
	c := randWalk(8000, 240)
	p := ts.NewPrefix(c)
	differ := 0
	for lo := 0; lo+40 < len(c); lo += 5 {
		hi, mid := lo+40, lo+17
		st := &state{c: c, p: p, splits: new(splitMemo)}
		fitted := seg{line: st.fitRange(lo, hi+1), start: lo, end: hi}
		merged := seg{line: segment.Merge(st.fitRange(lo, mid+1), mid-lo+1, st.fitRange(mid+1, hi+1), hi-mid), start: lo, end: hi}
		want := st.bestSplit(merged)
		if splitBits(st.bestSplit(fitted)) == splitBits(want) {
			continue
		}
		differ++
		st.segs = append(st.segs[:0], fitted)
		st.splitSeg(0)
		st.segs = append(st.segs[:0], merged)
		st.splitSeg(0)
		l, r := st.segs[0], st.segs[1]
		if got := (split{cut: l.end, left: l.line, right: r.line, betaL: l.beta, betaR: r.beta}); splitBits(got) != splitBits(want) {
			t.Fatalf("[%d,%d] under the merged line split as under the fitted one: %+v, want %+v", lo, hi, got, want)
		}
	}
	if differ == 0 {
		t.Fatal("no window whose merged line splits differently from its fit: the test checks nothing")
	}
}

func TestToReprMatchesState(t *testing.T) {
	c := randWalk(7000, 90)
	st := initialize(c, 4)
	rep := st.toRepr()
	if rep.N != len(c) || rep.Segments() != st.size() {
		t.Fatalf("toRepr shape mismatch")
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
}
