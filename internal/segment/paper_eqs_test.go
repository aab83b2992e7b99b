package segment

import "sapla/internal/ts"

// This file contains the paper's closed-form recurrences transcribed
// verbatim (Eqs. 1, 2, 3–4, 7–8, 9, 10, 11). They are mathematically
// equivalent to the sufficient-statistics forms in line.go and line_test.go —
// the package tests cross-check the two — but the sufficient-statistics forms
// are the ones the algorithms use because they are shorter and numerically
// stabler.

// Eq1 computes the least-squares slope and intercept exactly as written in
// paper Eq. (1) (with the obvious n→l typo corrected in the slope formula).
func Eq1(c ts.Series) Line {
	l := len(c)
	if l == 0 {
		panic("segment: Eq1 on empty slice")
	}
	if l == 1 {
		return Line{A: 0, B: c[0]}
	}
	fl := float64(l)
	var sa, sb float64
	for t, v := range c {
		ft := float64(t)
		sa += (ft - (fl-1)/2) * v
		sb += (2*fl - 1 - 3*ft) * v
	}
	return Line{
		A: 12 * sa / (fl * (fl - 1) * (fl + 1)),
		B: 2 * sb / (fl * (fl + 1)),
	}
}

// Eq2Increment extends a fit over l points by one appended point c,
// exactly as written in paper Eq. (2).
func Eq2Increment(ln Line, l int, c float64) Line {
	fl := float64(l)
	den := (fl + 1) * (fl + 2)
	return Line{
		A: ((fl-2)*(fl-1)*ln.A + 6*(c-ln.B)) / den,
		B: (2*(fl-1)*(ln.A*fl-c) + (fl+5)*fl*ln.B) / den,
	}
}

// Eq34Merge merges two adjacent fits exactly as written in paper
// Eqs. (3)–(4). left covers l1 points, right covers the following l2.
func Eq34Merge(left Line, l1 int, right Line, l2 int) Line {
	fl1, fl2 := float64(l1), float64(l2)
	flm := fl1 + fl2
	a := (left.A*fl1*(fl1-1)*(fl1+1-3*fl2) - 6*fl1*fl2*left.B +
		right.A*fl2*(fl2-1)*(fl2+1+3*fl1) + 6*fl1*fl2*right.B) /
		(flm * (flm - 1) * (flm + 1))
	b := (left.B*fl1*(fl1+1) + 2*left.A*fl2*fl1*(fl1-1) + 4*fl1*fl2*left.B +
		right.B*fl2*(fl2+1) - right.A*fl1*fl2*(fl2-1) - 2*fl1*fl2*right.B) /
		(flm * (flm + 1))
	return Line{A: a, B: b}
}

// Eq78SplitRight recovers the right sub-segment's fit from the merged fit
// and the left sub-segment's fit, exactly as written in paper Eqs. (7)–(8)
// (the inverse of Eqs. (3)–(4); Eqs. (5)–(6) for the left side are
// truncated in the paper's text, so the left inverse lives only in
// SplitLeft's sufficient-statistics form).
func Eq78SplitRight(merged Line, L int, left Line, l1 int) Line {
	flm := float64(L)
	fl1 := float64(l1)
	fl2 := flm - fl1
	a := merged.A*flm*(flm-1)*(flm+1-3*fl1)/(fl2*(fl2*fl2-1)) +
		left.A*fl1*(fl1-1)*(2*flm+fl2-1)/(fl2*(fl2*fl2-1)) +
		6*fl1*flm*(left.B-merged.B)/(fl2*(fl2*fl2-1))
	b := merged.A*fl1*flm*(flm-1)/(fl2*(fl2+1)) +
		merged.B*flm*(flm+1+2*fl1)/(fl2*(fl2+1)) -
		left.A*fl1*(fl1-1)*(flm+fl2)/(fl2*(fl2+1)) -
		left.B*fl1*(3*flm+fl2+1)/(fl2*(fl2+1))
	return Line{A: a, B: b}
}

// Eq9RemoveLast removes the last point cLast from a fit over l points,
// exactly as written in paper Eq. (9).
func Eq9RemoveLast(ln Line, l int, cLast float64) Line {
	fl := float64(l)
	return Line{
		A: (fl+4)*ln.A/(fl-2) + 6*(ln.B-cLast)/((fl-1)*(fl-2)),
		B: (fl-3)*ln.B/(fl-1) - 2*ln.A + 2*cLast/(fl-1),
	}
}

// Eq10Prepend prepends a point cFirst to a fit over l points, exactly as
// written in paper Eq. (10).
func Eq10Prepend(ln Line, l int, cFirst float64) Line {
	fl := float64(l)
	den := (fl + 1) * (fl + 2)
	return Line{
		A: (ln.A*(fl-1)*(fl+4) + 6*(ln.B-cFirst)) / den,
		B: (2*(2*fl+1)*cFirst + fl*(fl-1)*(ln.B-ln.A)) / den,
	}
}

// Eq11RemoveFirst removes the first point cFirst from a fit over l points,
// exactly as written in paper Eq. (11).
func Eq11RemoveFirst(ln Line, l int, cFirst float64) Line {
	fl := float64(l)
	return Line{
		A: ln.A + 6*(cFirst-ln.B)/((fl-1)*(fl-2)),
		B: ln.A + ((fl+3)*ln.B-4*cFirst)/(fl-1),
	}
}
