package index

// Rect is an axis-aligned hyper-rectangle in coefficient space — the MBR of
// a subtree. High representation dimensionalities make Guttman's
// area-based heuristics degenerate (products of many extents underflow), so
// all heuristics here use margins (sums of extents), a standard practical
// substitute.
type Rect struct {
	Lo, Hi []float64
}

// set makes r a copy of o, reusing r's arrays when they fit.
func (r *Rect) set(o Rect) {
	if len(r.Lo) != len(o.Lo) {
		buf := make([]float64, 2*len(o.Lo))
		r.Lo, r.Hi = buf[:len(o.Lo):len(o.Lo)], buf[len(o.Lo):]
	}
	copy(r.Lo, o.Lo)
	copy(r.Hi, o.Hi)
}

// extend grows r to cover o and reports whether r moved.
func (r *Rect) extend(o Rect) bool {
	moved := false
	for d := range r.Lo {
		if o.Lo[d] < r.Lo[d] {
			r.Lo[d], moved = o.Lo[d], true
		}
		if o.Hi[d] > r.Hi[d] {
			r.Hi[d], moved = o.Hi[d], true
		}
	}
	return moved
}

// margin is the sum of the extents over all dimensions.
func (r Rect) margin() float64 {
	var m float64
	for d := range r.Lo {
		m += r.Hi[d] - r.Lo[d]
	}
	return m
}

// enlargement is the margin increase needed for r to cover o.
func (r Rect) enlargement(o Rect) float64 {
	var inc float64
	for d := range r.Lo {
		lo, hi := r.Lo[d], r.Hi[d]
		if o.Lo[d] < lo {
			lo = o.Lo[d]
		}
		if o.Hi[d] > hi {
			hi = o.Hi[d]
		}
		inc += (hi - lo) - (r.Hi[d] - r.Lo[d])
	}
	return inc
}

// unionMargin is the margin of the rectangle bounding r and o.
func (r Rect) unionMargin(o Rect) float64 {
	var m float64
	for d := range r.Lo {
		lo, hi := r.Lo[d], r.Hi[d]
		if o.Lo[d] < lo {
			lo = o.Lo[d]
		}
		if o.Hi[d] > hi {
			hi = o.Hi[d]
		}
		m += hi - lo
	}
	return m
}

// gap returns the per-dimension distance from coordinate q to the interval
// [lo, hi] (0 if inside).
func gap(q, lo, hi float64) float64 {
	switch {
	case q < lo:
		return lo - q
	case q > hi:
		return hi - q // negative; caller squares
	default:
		return 0
	}
}
