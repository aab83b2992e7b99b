// Package segment implements the linear-segment mathematics that the paper's
// algorithms are built on: least-squares line fits (Eq. 1), O(1) incremental
// fits (Eq. 2), O(1) merge of adjacent fits (Eqs. 3–4), the per-segment
// squared distance Dist_S (Eq. 12), the Increment Area (Definition 4.1), the
// Reconstruction Area (Definition 4.2) and the get_max-style segment upper
// bounds β (Sections 4.1.2, 4.1.4, 4.3.1).
//
// The implementations work on sufficient statistics (l, Σc, Σt·c), which any
// fitted line determines uniquely; a window's fit comes from prefix sums
// (FitWindow), so the split and endpoint-movement refits (Eqs. 5–11) are not
// needed. The package tests keep them, the paper's recurrences verbatim
// (Eq1 … Eq11RemoveFirst) and Algorithm 4.1's get_max as oracles.
package segment

import (
	"sapla/internal/ts"
)

// Line is a fitted line over a segment, evaluated on local time
// t = 0, 1, ..., l−1 as A·t + B. It matches the paper's ⟨aᵢ, bᵢ⟩
// representation coefficients.
type Line struct {
	A float64 // slope aᵢ
	B float64 // y-intercept bᵢ
}

// Eval returns the line value at local time t.
func (ln Line) Eval(t int) float64 { return ln.A*float64(t) + ln.B }

// Shift returns the same geometric line re-parameterised so that local time 0
// corresponds to the old local time dt. Used to restrict a segment's line to
// a sub-range during Dist_PAR partitioning (Definition 5.1).
func (ln Line) Shift(dt int) Line {
	return Line{A: ln.A, B: ln.A*float64(dt) + ln.B}
}

// Reconstruct appends the l reconstructed points of the segment to dst and
// returns the extended slice.
func (ln Line) Reconstruct(dst ts.Series, l int) ts.Series {
	for t := 0; t < l; t++ {
		dst = append(dst, ln.Eval(t))
	}
	return dst
}

// Fit returns the least-squares line through l points with sufficient
// statistics s0 = Σc_t and s1 = Σt·c_t (t local, 0-based). This is paper
// Eq. (1) in sufficient-statistics form. For l = 1 the fit is the constant
// through the single point.
func Fit(l int, s0, s1 float64) Line {
	if l <= 0 {
		panic("segment: Fit with non-positive length")
	}
	if l == 1 {
		return Line{A: 0, B: s0}
	}
	fl := float64(l)
	a := (12*s1 - 6*(fl-1)*s0) / (fl * (fl*fl - 1))
	b := s0/fl - a*(fl-1)/2
	return Line{A: a, B: b}
}

// FitWindow returns the least-squares line over the half-open window
// [lo, hi) of the series behind p, in O(1).
func FitWindow(p *ts.Prefix, lo, hi int) Line {
	l, s0, s1, _ := p.Window(lo, hi)
	return Fit(l, s0, s1)
}

// FitSlice returns the least-squares line over the points of c, in O(len(c)).
func FitSlice(c ts.Series) Line {
	var s0, s1 float64
	for t, v := range c {
		s0 += v
		s1 += float64(t) * v
	}
	return Fit(len(c), s0, s1)
}

// Stats recovers the sufficient statistics (Σc, Σt·c) of the l data points
// that produced the least-squares fit ln. A least-squares line determines
// them exactly: the fit equations are linear in (s0, s1).
func (ln Line) Stats(l int) (s0, s1 float64) {
	fl := float64(l)
	s0 = fl*ln.B + ln.A*fl*(fl-1)/2
	if l == 1 {
		return s0, 0
	}
	// Invert a = (12·s1 − 6(l−1)·s0) / (l(l²−1)).
	s1 = (ln.A*fl*(fl*fl-1) + 6*(fl-1)*s0) / 12
	return s0, s1
}

// Append returns the least-squares fit after appending one point c to a
// segment of length l fitted by ln (paper Eq. (2), O(1)).
func Append(ln Line, l int, c float64) Line {
	s0, s1 := ln.Stats(l)
	return Fit(l+1, s0+c, s1+float64(l)*c)
}

// Merge returns the least-squares fit over the union of two adjacent
// segments from their individual fits (paper Eqs. (3)–(4), O(1)).
// left covers local times [0, l1), right covers [l1, l1+l2).
func Merge(left Line, l1 int, right Line, l2 int) Line {
	s0l, s1l := left.Stats(l1)
	s0r, s1r := right.Stats(l2)
	return Fit(l1+l2, s0l+s0r, s1l+s1r+float64(l1)*s0r)
}
