// Package core implements SAPLA — Self-Adaptive Piecewise Linear
// Approximation — the paper's primary contribution (Section 4): an
// adaptive-length linear segmentation with N = M/3 segments computed by
//
//  1. Initialization (Algorithm 4.2): one scan over the series cuts a new
//     segment whenever the Increment Area of the growing segment ranks among
//     the N−1 largest seen so far.
//  2. Split & merge iteration (Algorithm 4.3): merge the adjacent pair with
//     the smallest Reconstruction Area / split the segment with the largest
//     upper bound β until exactly N segments remain, then keep applying
//     paired split+merge moves while they reduce the sum upper bound β.
//  3. Segment endpoint movement iteration (Algorithms 4.4–4.5): greedily
//     move each boundary of high-β segments while the bound decreases.
//
// All per-step refits are O(1) through prefix-sum least-squares fits
// (equivalent to the paper's Eqs. (2)–(11)); the measurable outputs (max
// deviation etc.) are computed exactly by the evaluation harness, while the
// β bounds here are the paper's cheap conditional bounds used only to drive
// the search.
//
// Each step exists once. Reducer runs the pipeline on a stored series; Online
// is the same pipeline fed one point at a time: stage 1 is a single
// left-to-right scan (scan.extend), so a stream takes it point by point, and a
// snapshot hands the streamed segments to its own Reducer, which runs stages 2
// and 3 exactly as for a stored series.
package core

import (
	"math"

	"sapla/internal/pqueue"
	"sapla/internal/repr"
	"sapla/internal/segment"
	"sapla/internal/ts"
)

// improveEps is the minimum strict improvement of the sum upper bound β for
// an iteration to continue; it guarantees termination where the paper
// iterates "while β does not grow".
const improveEps = 1e-12

// SAPLA is the Self-Adaptive Piecewise Linear Approximation method. The zero
// value is ready to use; the fields tune iteration budgets.
type SAPLA struct {
	// RefinePasses caps the split&merge refinement loop at size N.
	// 0 means the paper's default of N passes.
	RefinePasses int
	// MovePasses is the number of endpoint-movement sweeps over the
	// segment queue. 0 means the paper's default of one sweep.
	MovePasses int
	// SkipEndpointMove disables stage 3 (used by the ablation benches).
	SkipEndpointMove bool
	// SkipRefine disables the β^sm/β^ms refinement at size N (ablation).
	SkipRefine bool
	// ExactBounds replaces the paper's O(1) conditional upper bounds β with
	// the exact per-segment max deviation ε (an O(l) scan per refit). This
	// addresses the limitation the paper's conclusion names — conditional
	// rather than unconditional bounds — at the cost of a slower iteration;
	// the ablation benches quantify the quality/time trade.
	ExactBounds bool
}

// New returns a SAPLA reducer with the paper's default iteration budgets.
func New() *SAPLA { return &SAPLA{} }

// Name implements the reduce.Method interface.
func (*SAPLA) Name() string { return "SAPLA" }

// Reduce reduces c to N = m/3 adaptive linear segments ⟨aᵢ, bᵢ, rᵢ⟩.
// It draws a Reducer from a package pool, so repeated calls perform no heap
// allocations beyond the returned representation.
func (s *SAPLA) Reduce(c ts.Series, m int) (repr.Representation, error) {
	r := reducerPool.Get().(*Reducer)
	r.cfg = *s
	out, err := r.ReduceInto(repr.Linear{}, c, m)
	reducerPool.Put(r)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceStages runs SAPLA and additionally returns the intermediate
// representations after initialization and after the split & merge
// iteration, matching the paper's Figures 5, 6 and 8. It runs the same code
// as ReduceInto on a fresh Reducer.
func (s *SAPLA) ReduceStages(c ts.Series, m int) (init, afterSM, final repr.Linear, err error) {
	var stages [2]repr.Linear
	final, err = NewReducerFor(*s).reduce(repr.Linear{}, c, m, &stages)
	return stages[0], stages[1], final, err
}

// segmentCount validates the coefficient budget (Table 1: N = M/3, each
// adaptive segment covering at least 2 points).
func segmentCount(n, m int) (int, error) {
	if m < 3 {
		return 0, errBudget(m, n)
	}
	nSeg := m / 3
	if 2*nSeg > n {
		return 0, errBudget(m, n)
	}
	return nSeg, nil
}

// seg is one working segment: its least-squares line over local time, its
// inclusive global range, its upper bound β, the cached Reconstruction Area
// of merging it with its right neighbour, and the split/merge marks used by
// the refinement loop.
type seg struct {
	line       segment.Line
	start, end int
	beta       float64
	area       float64 // mergeArea of this segment and the next; valid while areaOK
	areaOK     bool    // cleared whenever this segment or the next one changes
	split      bool
	merged     bool
}

func (g seg) len() int { return g.end - g.start + 1 }

// state is a working segmentation of c.
type state struct {
	c      ts.Series
	p      *ts.Prefix
	segs   []seg
	exact  bool       // ExactBounds mode: β is the true segment max deviation
	splits *splitMemo // outcomes of splitSeg for this series
}

// initialize is Algorithm 4.2 over the whole series. st.c and st.p must
// already describe the series; the segment buffer and the η queue are reset
// and reused.
func (st *state) initialize(nSeg int, eta *pqueue.Heap[struct{}]) {
	eta.Reset()
	var sc scan
	st.segs = st.segs[:0]
	sc.extend(st.c, 0, eta, nSeg-1, &st.segs)
	st.segs = append(st.segs, sc.open(len(st.c)-1))
}

// scan is Algorithm 4.2's open segment: its first point, its line and the
// running max deviation and upper bound β of the points it holds. The batch
// reducer drives it over a stored series, Online one point at a time.
type scan struct {
	start      int
	line       segment.Line
	maxD, beta float64
}

// extend takes points c[from:] into the scan, appending every segment a cut
// closes to closed. A segment's first two points only seed its line (the
// scan resumes two positions after a cut); from the third on, each point's
// Increment Area enters η, which keeps the capacity largest areas seen, and
// an area that ranks among them cuts: the open segment closes before the
// point, and the next opens at it.
func (sc *scan) extend(c ts.Series, from int, eta *pqueue.Heap[struct{}], capacity int, closed *[]seg) {
	start, line, maxD, beta := sc.start, sc.line, sc.maxD, sc.beta
	for pos := from; pos < len(c); pos++ {
		switch l := pos - start; l {
		case 0:
			line, maxD, beta = segment.Line{A: 0, B: c[pos]}, 0, 0
		case 1:
			line = segment.Line{A: c[pos] - c[start], B: c[start]}
		default:
			inc := segment.Append(line, l, c[pos])
			area := segment.IncrementArea(inc, line, l)
			if capacity > 0 && (eta.Len() < capacity || area > eta.PeekPriority()) {
				if eta.Len() >= capacity {
					eta.Pop()
				}
				eta.Push(area, struct{}{})
				*closed = append(*closed, seg{line: line, start: start, end: pos - 1, beta: beta})
				start, line, maxD, beta = pos, segment.Line{A: 0, B: c[pos]}, 0, 0
				continue
			}
			beta, maxD = segment.BetaInit(c[start:pos+1], inc, line, l, maxD)
			line = inc
		}
	}
	sc.start, sc.line, sc.maxD, sc.beta = start, line, maxD, beta
}

// open returns the open segment as it stands, ending at point end.
func (sc *scan) open(end int) seg {
	return seg{line: sc.line, start: sc.start, end: end, beta: sc.beta}
}

func (st *state) size() int { return len(st.segs) }

func (st *state) totalBeta() float64 {
	var sum float64
	for _, g := range st.segs {
		sum += g.beta
	}
	return sum
}

func (st *state) fitRange(lo, hi int) segment.Line { return segment.FitWindow(st.p, lo, hi) }

// mergeArea is the Reconstruction Area of merging segs[i] and segs[i+1]
// (Definition 4.2), O(1), cached in segs[i] until either segment changes.
func (st *state) mergeArea(i int) float64 {
	a := &st.segs[i]
	if !a.areaOK {
		b := &st.segs[i+1]
		merged := segment.Merge(a.line, a.len(), b.line, b.len())
		a.area, a.areaOK = segment.ReconstructionArea(merged, a.line, a.len(), b.line, b.len()), true
	}
	return a.area
}

// changed clears the cached merge areas of the pairs segs[i] belongs to: its
// own with segs[i+1] and segs[i−1]'s with it.
func (st *state) changed(i int) {
	st.segs[i].areaOK = false
	if i > 0 {
		st.segs[i-1].areaOK = false
	}
}

// bestMergePair returns the index of the adjacent pair with the minimum
// Reconstruction Area, optionally skipping pairs touching merge-marked
// segments. Returns -1 if no pair qualifies.
func (st *state) bestMergePair(skipMarked bool) int {
	best, bestArea := -1, 0.0
	for i := 0; i+1 < len(st.segs); i++ {
		if skipMarked && (st.segs[i].merged || st.segs[i+1].merged) {
			continue
		}
		area := st.mergeArea(i)
		if best < 0 || area < bestArea {
			best, bestArea = i, area
		}
	}
	return best
}

// mergePair replaces segs[i] and segs[i+1] with their merged segment,
// computing the new β per Section 4.1.4.
func (st *state) mergePair(i int) {
	a, b := st.segs[i], st.segs[i+1]
	merged := segment.Merge(a.line, a.len(), b.line, b.len())
	var beta float64
	if st.exact {
		beta = segment.ExactMaxDeviation(st.c[a.start:b.end+1], merged)
	} else {
		beta = segment.BetaMerge(st.c[a.start:b.end+1], merged, a.line, a.len(), b.line, b.len())
	}
	st.segs[i] = seg{line: merged, start: a.start, end: b.end, beta: beta, merged: true}
	st.segs = append(st.segs[:i+1], st.segs[i+2:]...)
	st.changed(i)
}

// bestSplitSeg returns the index of the splittable segment (≥ 2 points) with
// the maximum β, optionally skipping split-marked segments; ties prefer the
// longer segment. Returns -1 if none qualifies.
func (st *state) bestSplitSeg(skipMarked bool) int {
	best := -1
	for i, g := range st.segs {
		if g.len() < 2 || (skipMarked && g.split) {
			continue
		}
		if best < 0 || g.beta > st.segs[best].beta ||
			(g.beta == st.segs[best].beta && g.len() > st.segs[best].len()) { //sapla:floateq exact tie-break between stored β values; ties fall through to the longer segment
			best = i
		}
	}
	return best
}

// splitSeg splits segs[i] at the cut with the maximum Reconstruction Area
// (Section 4.3.2) and computes the children's β per Section 4.3.1.
func (st *state) splitSeg(i int) {
	g := st.segs[i]
	sp, ok := st.splits.lookup(g)
	if !ok {
		sp = st.bestSplit(g)
		st.splits.store(g, sp)
	}
	st.segs = append(st.segs, seg{})
	copy(st.segs[i+2:], st.segs[i+1:])
	st.segs[i] = seg{line: sp.left, start: g.start, end: sp.cut, beta: sp.betaL, split: true}
	st.segs[i+1] = seg{line: sp.right, start: sp.cut + 1, end: g.end, beta: sp.betaR, split: true}
	st.changed(i)
}

// split is the outcome of splitting one segment: the last point of the left
// part, both parts' lines and their β.
type split struct {
	cut          int
	left, right  segment.Line
	betaL, betaR float64
}

// bestSplit scans every cut of g for the maximum Reconstruction Area, O(len).
func (st *state) bestSplit(g seg) split {
	bestCut, bestArea := g.start, -1.0
	for cut := g.start; cut < g.end; cut++ {
		l1 := cut - g.start + 1
		l2 := g.end - cut
		left := st.fitRange(g.start, cut+1)
		right := st.fitRange(cut+1, g.end+1)
		area := segment.ReconstructionArea(g.line, left, l1, right, l2)
		if area > bestArea {
			bestArea, bestCut = area, cut
		}
	}
	sp := split{
		cut:   bestCut,
		left:  st.fitRange(g.start, bestCut+1),
		right: st.fitRange(bestCut+1, g.end+1),
	}
	if st.exact {
		sp.betaL = segment.ExactMaxDeviation(st.c[g.start:bestCut+1], sp.left)
		sp.betaR = segment.ExactMaxDeviation(st.c[bestCut+1:g.end+1], sp.right)
	} else {
		sp.betaL, sp.betaR = segment.BetaSplit(st.c[g.start:g.end+1], g.line, sp.left, bestCut-g.start+1, sp.right, g.end-bestCut)
	}
	return sp
}

// splitMemoSize bounds the splits remembered per reduction; a 1024-point
// series is split a handful of times.
const splitMemoSize = 16

// splitMemo remembers splitSeg's outcomes within one reduction. The outcome
// is a pure function of the series, the mode and the segment's window and
// line, so a hit returns exactly what bestSplit would recompute: the
// refinement's split-then-merge and merge-then-split candidates, and
// successive passes, split the same segment again.
type splitMemo struct {
	n, next int
	keys    [splitMemoSize]splitKey
	vals    [splitMemoSize]split
}

type splitKey struct {
	start, end int
	a, b       uint64 // Float64bits of the segment's line
}

func keyOf(g seg) splitKey {
	return splitKey{g.start, g.end, math.Float64bits(g.line.A), math.Float64bits(g.line.B)}
}

// reset forgets every outcome; the next series has other splits.
func (m *splitMemo) reset() { m.n, m.next = 0, 0 }

func (m *splitMemo) lookup(g seg) (split, bool) {
	k := keyOf(g)
	for i := 0; i < m.n; i++ {
		if m.keys[i] == k {
			return m.vals[i], true
		}
	}
	return split{}, false
}

// store records an outcome, overwriting the oldest once the memo is full.
func (m *splitMemo) store(g seg, sp split) {
	m.keys[m.next], m.vals[m.next] = keyOf(g), sp
	m.next = (m.next + 1) % splitMemoSize
	if m.n < splitMemoSize {
		m.n++
	}
}

// adjustToCount is the first half of Algorithm 4.3: merge down / split up
// until exactly nSeg segments remain.
func (st *state) adjustToCount(nSeg int) {
	for st.size() > nSeg {
		st.mergePair(st.bestMergePair(false))
	}
	for st.size() < nSeg {
		i := st.bestSplitSeg(false)
		if i < 0 {
			return // nothing splittable (n too small); keep fewer segments
		}
		st.splitSeg(i)
	}
	for i := range st.segs {
		st.segs[i].split = false
		st.segs[i].merged = false
	}
}

// copyInto copies the segmentation, cached merge areas included, into dst,
// reusing dst's segment buffer (the series, prefix and split memo are
// shared).
func (st *state) copyInto(dst *state) {
	dst.c, dst.p, dst.exact, dst.splits = st.c, st.p, st.exact, st.splits
	dst.segs = append(dst.segs[:0], st.segs...)
}

// refine is the second half of Algorithm 4.3: at size N, evaluate
// split-then-merge (β^sm) and merge-then-split (β^ms) moves and apply the
// better one while the sum upper bound β decreases. Marks ensure a segment
// is split or merged at most once per refinement, bounding the loop.
// sm and ms are caller-owned scratch states reused across passes.
func (st *state) refine(maxPasses int, sm, ms *state) {
	for pass := 0; pass < maxPasses; pass++ {
		beta := st.totalBeta()

		st.copyInto(sm)
		okSM := sm.trySplitThenMerge()
		st.copyInto(ms)
		okMS := ms.tryMergeThenSplit()

		bestBeta := beta
		var best *state
		if okSM && sm.totalBeta() < bestBeta-improveEps {
			bestBeta, best = sm.totalBeta(), sm
		}
		if okMS && ms.totalBeta() < bestBeta-improveEps {
			best = ms
		}
		if best == nil {
			return
		}
		st.segs = append(st.segs[:0], best.segs...) // writes into the existing backing array: both states hold size-N segmentations
	}
}

func (st *state) trySplitThenMerge() bool {
	i := st.bestSplitSeg(true)
	if i < 0 {
		return false
	}
	st.splitSeg(i)
	j := st.bestMergePair(true)
	if j < 0 {
		return false
	}
	st.mergePair(j)
	return true
}

func (st *state) tryMergeThenSplit() bool {
	j := st.bestMergePair(true)
	if j < 0 {
		return false
	}
	st.mergePair(j)
	i := st.bestSplitSeg(true)
	if i < 0 {
		return false
	}
	st.splitSeg(i)
	return true
}

// betaApprox is the cheap endpoint-sample bound used when a segment is refit
// during endpoint movement (Section 4.4.1): the maximum absolute difference
// between the original points and the new line at the segment's endpoints
// and midpoint, times (l−1).
func (st *state) betaApprox(lo, hi int, ln segment.Line) float64 {
	if st.exact {
		return segment.ExactMaxDeviation(st.c[lo:hi], ln)
	}
	l := hi - lo
	m := segment.SampleDev(st.c[lo:hi], ln)
	f := l - 1
	if f < 1 {
		f = 1
	}
	return m * float64(f)
}

// greedyBoundary greedily moves the boundary between segs[i] and segs[i+1]
// one point at a time in direction dir (+1 grows the left segment) while the
// pair's β sum strictly decreases (Algorithm 4.5). It returns the best cut
// and the pair's β sum there.
func (st *state) greedyBoundary(i, dir int) (bestCut int, bestSum float64) {
	left, right := st.segs[i], st.segs[i+1]
	cut := left.end
	bestCut = cut
	bestSum = left.beta + right.beta
	for {
		cut += dir
		// Both segments keep at least 2 points (Algorithm 4.5's l ≥ 2).
		if cut < left.start+1 || cut > right.end-2 {
			break
		}
		lLine := st.fitRange(left.start, cut+1)
		rLine := st.fitRange(cut+1, right.end+1)
		sum := st.betaApprox(left.start, cut+1, lLine) + st.betaApprox(cut+1, right.end+1, rLine)
		if sum < bestSum-improveEps {
			bestCut, bestSum = cut, sum
		} else {
			break
		}
	}
	return bestCut, bestSum
}

// applyBoundary refits the pair (i, i+1) with the boundary at cut.
func (st *state) applyBoundary(i, cut int) {
	left, right := &st.segs[i], &st.segs[i+1]
	left.end = cut
	right.start = cut + 1
	left.line = st.fitRange(left.start, left.end+1)
	right.line = st.fitRange(right.start, right.end+1)
	left.beta = st.betaApprox(left.start, left.end+1, left.line)
	right.beta = st.betaApprox(right.start, right.end+1, right.line)
	st.changed(i)
	st.changed(i + 1)
}

// moveEndpoints is Algorithm 4.4: process segments in decreasing-β order;
// for each, evaluate the four greedy boundary moves (β^a..β^d) and apply the
// best improving one. It reports whether any move was applied. order is a
// caller-owned scratch heap reused across passes.
func (st *state) moveEndpoints(order *pqueue.Heap[int]) bool {
	order.Reset()
	for i, g := range st.segs {
		order.Push(g.beta, i)
	}
	movedAny := false
	for order.Len() > 0 {
		_, i := order.Pop()
		type cand struct {
			pair, cut int
			sum       float64
		}
		var cands [4]cand
		nc := 0
		if i+1 < len(st.segs) {
			ca, sa := st.greedyBoundary(i, +1) // β^a: grow right endpoint
			cb, sb := st.greedyBoundary(i, -1) // β^b: shrink right endpoint
			cands[nc] = cand{i, ca, sa}
			cands[nc+1] = cand{i, cb, sb}
			nc += 2
		}
		if i > 0 {
			cc, sc := st.greedyBoundary(i-1, -1) // β^c: grow left endpoint
			cd, sd := st.greedyBoundary(i-1, +1) // β^d: shrink left endpoint
			cands[nc] = cand{i - 1, cc, sc}
			cands[nc+1] = cand{i - 1, cd, sd}
			nc += 2
		}
		best := -1
		for k, cd := range cands[:nc] {
			cur := st.segs[cd.pair].beta + st.segs[cd.pair+1].beta
			if cd.sum < cur-improveEps && (best < 0 || cd.sum < cands[best].sum) {
				best = k
			}
		}
		if best >= 0 {
			cd := cands[best]
			if cd.cut != st.segs[cd.pair].end {
				st.applyBoundary(cd.pair, cd.cut)
				movedAny = true
			}
		}
	}
	return movedAny
}

// toRepr converts the working segmentation to a freshly allocated
// repr.Linear, in one allocation.
func (st *state) toRepr() repr.Linear {
	return st.appendRepr(repr.Linear{Segs: make([]repr.LinearSeg, 0, len(st.segs))})
}

// appendRepr writes the working segmentation into dst, reusing dst's segment
// buffer, and returns the updated representation.
func (st *state) appendRepr(dst repr.Linear) repr.Linear {
	dst.N = len(st.c)
	dst.Segs = dst.Segs[:0]
	for _, g := range st.segs {
		dst.Segs = append(dst.Segs, repr.LinearSeg{Line: g.line, R: g.end})
	}
	return dst
}
