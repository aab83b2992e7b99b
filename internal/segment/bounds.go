package segment

import (
	"math"

	"sapla/internal/ts"
)

// triple returns the maximum absolute pairwise difference among c[k],
// a.Eval(k) and b.Eval(k) — one get_max position on concrete types, kept
// closure-free so the reduction hot path performs no allocations.
func triple(c ts.Series, a, b Line, k int) float64 {
	x, y, z := c[k], a.Eval(k), b.Eval(k)
	m := math.Abs(x - y)
	if d := math.Abs(x - z); d > m {
		m = d
	}
	if d := math.Abs(y - z); d > m {
		m = d
	}
	return m
}

// BetaInit computes the segment upper bound of Section 4.1.2 used while a
// segment grows during initialization and endpoint movement. c is the grown
// segment's original points (length l+1), inc is the new fit, ext the old
// fit extrapolated, l the length before the growth step, and maxD the
// running maximum from previous growth steps. It returns the bound
// β = max(get_max([1, l, l+1]), maxD) · l and the updated running maximum.
//
// Local positions are 1-based in the paper; here 0-based: {0, l−1, l}.
func BetaInit(c ts.Series, inc, ext Line, l int, maxD float64) (beta, newMaxD float64) {
	m := triple(c, inc, ext, 0)
	second := l - 1
	if l == 1 {
		second = 1
	}
	if d := triple(c, inc, ext, second); d > m {
		m = d
	}
	if l > 1 {
		if d := triple(c, inc, ext, l); d > m {
			m = d
		}
	}
	if m < maxD {
		m = maxD
	}
	return m * float64(l), m
}

// BetaMerge computes the segment upper bound of Section 4.1.4 for a merge of
// two adjacent segments: β'_{i+1} = get_max([1, l1, l1+1, L]) · (L−1)
// evaluated over the original points c (length L = l1+l2), the merged fit,
// and the concatenated pair of original fits.
func BetaMerge(c ts.Series, merged Line, left Line, l1 int, right Line, l2 int) float64 {
	L := l1 + l2
	var m float64
	for _, k := range [4]int{0, l1 - 1, l1, L - 1} {
		pair := left
		kk := k
		if k >= l1 {
			pair = right
			kk = k - l1
		}
		x, y, z := c[k], merged.Eval(k), pair.Eval(kk)
		if d := math.Abs(x - y); d > m {
			m = d
		}
		if d := math.Abs(x - z); d > m {
			m = d
		}
		if d := math.Abs(y - z); d > m {
			m = d
		}
	}
	return m * float64(L-1)
}

// BetaSplit computes the two segment upper bounds of Section 4.3.1 after a
// long segment with fit merged (length L = l1+l2, original points c) is
// split into a left fit over l1 points and a right fit over l2 points.
func BetaSplit(c ts.Series, merged Line, left Line, l1 int, right Line, l2 int) (betaL, betaR float64) {
	mL := triple(c, merged, left, 0)
	if d := triple(c, merged, left, l1-1); d > mL {
		mL = d
	}
	// The merged line restricted to the right part uses shifted local time.
	shifted := merged.Shift(l1)
	cr := c[l1:]
	mR := triple(cr, shifted, right, 0)
	if d := triple(cr, shifted, right, l2-1); d > mR {
		mR = d
	}
	betaL = mL * float64(max(l1-1, 1))
	betaR = mR * float64(max(l2-1, 1))
	return betaL, betaR
}

// SampleDev returns the maximum absolute deviation between c and the fit ln
// at the five sampled local positions {0, (l−1)/4, (l−1)/2, 3(l−1)/4, l−1} —
// the endpoint-movement bound of Section 4.4.1 — without allocating.
func SampleDev(c ts.Series, ln Line) float64 {
	l := len(c)
	var m float64
	for _, k := range [5]int{0, (l - 1) / 4, (l - 1) / 2, 3 * (l - 1) / 4, l - 1} {
		if d := math.Abs(c[k] - ln.Eval(k)); d > m {
			m = d
		}
	}
	return m
}

// ExactMaxDeviation returns the true segment max deviation εᵢ
// (Definition 3.4): the maximum absolute difference between the original
// points c and the fit ln, in O(len(c)). SAPLA's ExactBounds mode uses it in
// place of the O(1) β bounds, and the tests take it as ground truth.
func ExactMaxDeviation(c ts.Series, ln Line) float64 {
	var m float64
	for t, v := range c {
		if d := math.Abs(v - ln.Eval(t)); d > m {
			m = d
		}
	}
	return m
}

// DistS is the closed-form squared Euclidean distance between two fitted
// lines of common length l evaluated on the integer grid (paper Eq. (12)):
//
//	Σ_{t=0}^{l−1} ((qa−ca)·t + (qb−cb))²
func DistS(q, c Line, l int) float64 {
	fl := float64(l)
	da := q.A - c.A
	db := q.B - c.B
	return fl*(fl-1)*(2*fl-1)/6*da*da + fl*(fl-1)*da*db + fl*db*db
}
