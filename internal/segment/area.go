package segment

import "math"

// SumAbsLine returns Σ_{t=0}^{l-1} |p·t + q| in O(1).
//
// The paper approximates this quantity geometrically ("an area of two
// triangles", Definition 4.1): the absolute difference of two lines is a
// piecewise-linear function with at most one sign change, so the sum over
// the integer grid splits into at most two ranges with constant sign, each
// summed in closed form.
func SumAbsLine(p, q float64, l int) float64 {
	if l <= 0 {
		return 0
	}
	fl := float64(l)
	sum := func(lo, hi float64) float64 { // never escapes, so it stays on the stack (core's TestReduceIntoAllocs holds that)
		// Σ_{t=lo}^{hi-1} (p·t + q)
		n := hi - lo
		return p*(lo+hi-1)*n/2 + q*n
	}
	if p == 0 { //sapla:floateq exactly-zero slope selects the closed form before dividing by p
		return math.Abs(q) * fl
	}
	root := -q / p
	if root <= 0 || root >= fl-1 {
		return math.Abs(sum(0, fl))
	}
	k := math.Ceil(root)
	if k == root { //sapla:floateq math.Ceil returns root exactly when root is integral; that case must shift the split point
		k++ // the root itself contributes zero; keep ranges non-empty
	}
	if k >= fl {
		return math.Abs(sum(0, fl))
	}
	return math.Abs(sum(0, k)) + math.Abs(sum(k, fl))
}

// IncrementArea returns the Increment Area ε(Č'ᵢ, Č^eᵢ) of Definition 4.1:
// the total absolute difference between the Increment Segment line inc
// (the new fit after appending a point) and the Extended Segment line ext
// (the old fit extrapolated by one point), both evaluated over the
// l+1 points of the grown segment.
func IncrementArea(inc, ext Line, l int) float64 {
	return SumAbsLine(inc.A-ext.A, inc.B-ext.B, l+1)
}

// ReconstructionArea returns the Reconstruction Area
// ε(Č'_{i+1}, Čᵢ + Č_{i+1}) of Definition 4.2: the total absolute difference
// between the merged segment's line and the two original adjacent segments'
// lines over their l1+l2 points.
func ReconstructionArea(merged Line, left Line, l1 int, right Line, l2 int) float64 {
	a := SumAbsLine(merged.A-left.A, merged.B-left.B, l1)
	// Over the right part, merged runs on local time t = l1..l1+l2−1 while
	// right runs on u = t−l1, so the difference is
	// (Am−Ar)·u + (Am·l1 + Bm − Br).
	b := SumAbsLine(merged.A-right.A, merged.A*float64(l1)+merged.B-right.B, l2)
	return a + b
}
