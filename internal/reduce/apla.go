package reduce

import (
	"math"
	"sort"

	"sapla/internal/repr"
	"sapla/internal/segment"
	"sapla/internal/ts"
)

// APLA is the Adaptive Piecewise Linear Approximation baseline [17]: an
// exact dynamic program ϖ[m,t] = min_α(ϖ[α,t−1] + ε(α+1..m)) over
// N = M/3 adaptive linear segments, minimising the sum of segment max
// deviations ε (the objective the paper quotes for APLA: guaranteed error
// bounds at O(Nn²) for the DP — the slowness SAPLA exists to fix).
type APLA struct{}

// NewAPLA returns the APLA method.
func NewAPLA() *APLA { return &APLA{} }

// Name implements Method.
func (*APLA) Name() string { return "APLA" }

// Reduce implements Method.
func (*APLA) Reduce(c ts.Series, m int) (repr.Representation, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	nSeg, err := segmentsFor("APLA", m, len(c), 3, 1)
	if err != nil {
		return nil, err
	}
	return repr.FitLinear(c, segmentDP(c, nSeg)), nil
}

// segmentDP runs the dynamic program and returns the optimal right
// endpoints.
func segmentDP(c ts.Series, nSeg int) []int {
	n := len(c)
	if nSeg >= n {
		// Degenerate: one point per segment (zero error); emit n segments
		// capped at nSeg by covering the tail with the last one.
		nSeg = n
	}
	errTab := errorTable(c) // ε(s..e) = errTab[s][e−s]

	// Layer 1: one segment covering 0..m.
	prev := make([]float64, n)
	copy(prev, errTab[0])
	// choice[t][m] = best α (last endpoint of the first t segments).
	choice := make([][]int32, nSeg+1)
	cur := make([]float64, n)
	for t := 2; t <= nSeg; t++ {
		choice[t] = make([]int32, n)
		for m := 0; m < n; m++ {
			cur[m] = math.Inf(1)
			choice[t][m] = -1
			if m < t-1 {
				continue // fewer points than segments
			}
			for alpha := t - 2; alpha < m; alpha++ {
				if v := prev[alpha] + errTab[alpha+1][m-alpha-1]; v < cur[m] {
					cur[m] = v
					choice[t][m] = int32(alpha)
				}
			}
		}
		prev, cur = cur, prev
	}

	// Backtrack from ϖ[n−1, nSeg].
	endpoints := make([]int, nSeg)
	endpoints[nSeg-1] = n - 1
	m := n - 1
	for t := nSeg; t >= 2; t-- {
		m = int(choice[t][m])
		endpoints[t-2] = m
	}
	return endpoints
}

// errorTable returns err[s][k] = ε(s..s+k), the max deviation
// max_t |c[s+t] − ln.Eval(t)| of the least-squares line ln over c[s..s+k],
// for every window, in O(n² log n). The point farthest above (below) a line
// is the vertex of the window's upper (lower) convex hull left of the first
// hull edge no steeper than the line. So for each start the two hulls grow
// with the window (monotone chain), and a cell evaluates the expression
// above at the vertex a binary search over the edge slopes finds and at its
// two neighbours, on each hull.
//
// Every stored value is that expression at some t, so a cell never exceeds
// the window scan; it falls short only where rounding misleads the hull. Let
// u = 2⁻⁵³, C = max|c[s..s+k]| and M = C + |A|·k + |B|. An edge slope, a
// rise ≤ 2C over a run, has a relative error ≤ 2u. Popping on such slopes
// can drop a vertex lying < 2u·4C = 8uC above the chord that replaces it.
// The slopes stay non-increasing, so the search stops where they cross A,
// and no vertex's exact residual beats the found one's by 2u times the
// hull's total variation (≤ 4C on a concave chain): 8uC. Each evaluation
// errs by ≤ u·(C + 3|A·t| + 2|B|) ≤ 3uM. So a cell is within 16uC + 6uM of
// the scan, plus 16(k+1)·2⁻¹⁰⁷⁴ in gradual underflow, where each operation
// errs absolutely and a slope's error is multiplied by runs summing to k.
// (Nested wrong pops would add 8uC a level; FuzzAPLAErrorTable holds the
// bound.) On the experiments' series the two agree bit for bit.
func errorTable(c ts.Series) [][]float64 {
	n := len(c)
	p := ts.NewPrefix(c)
	tab := make([][]float64, n)
	up := hull{sign: 1, idx: make([]int, 0, n), slope: make([]float64, 0, n)}
	lo := hull{sign: -1, idx: make([]int, 0, n), slope: make([]float64, 0, n)}
	for s := range tab {
		row := make([]float64, n-s)
		up.w, up.idx, up.slope = c[s:], up.idx[:0], up.slope[:0]
		lo.w, lo.idx, lo.slope = c[s:], lo.idx[:0], lo.slope[:0]
		for t := range row {
			up.push(t)
			lo.push(t)
			ln := segment.FitWindow(p, s, s+t+1)
			row[t] = max(up.dev(ln), lo.dev(ln))
		}
		tab[s] = row
	}
	return tab
}

// hull is the upper convex hull of the points (t, sign·w[t]) pushed so far;
// sign −1 makes it w's lower hull, exactly. slope[k] is the slope of the edge
// into vertex k.
type hull struct {
	w     ts.Series
	sign  float64
	idx   []int
	slope []float64
}

// push appends point t, first popping every vertex whose edge to t would
// rise more steeply than the edge into it. Collinear vertices stay.
func (h *hull) push(t int) {
	yt := h.sign * h.w[t]
	var s float64
	for k := len(h.idx) - 1; k >= 0; k-- {
		b := h.idx[k]
		s = (yt - h.sign*h.w[b]) / float64(t-b)
		if k == 0 || s <= h.slope[k] {
			break
		}
		h.idx, h.slope = h.idx[:k], h.slope[:k]
	}
	h.idx = append(h.idx, t)
	h.slope = append(h.slope, s)
}

// dev returns the largest |w[t] − ln.Eval(t)| over the vertex farthest on
// the hull's side of ln, the one left of the first edge no steeper than the
// line (slope sign·A), and its two neighbours.
func (h *hull) dev(ln segment.Line) float64 {
	a := h.sign * ln.A
	v := sort.Search(len(h.idx)-1, func(k int) bool { return h.slope[k+1] <= a })
	var m float64
	for _, t := range h.idx[max(v-1, 0):min(v+2, len(h.idx))] {
		if d := math.Abs(h.w[t] - ln.Eval(t)); d > m {
			m = d
		}
	}
	return m
}
