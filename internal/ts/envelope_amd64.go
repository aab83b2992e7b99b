package ts

// lowerBounds is LowerBounds on amd64: envelopeBounds writes every row's
// float64 bound itself, rowLB's steps included.
func lowerBounds(e *Envelope, rows, slack []float32, out []float64) {
	envelopeBounds(&e.v, e.eps, rows[:len(out)*EnvelopeWidth], slack[:len(out)], out)
}

// envelopeBounds writes, for each of the len(out) rows of rows (EnvelopeWidth
// values each) and its slack in slack (both must hold them all), the row's
// lower bound with lowerBoundsGo's bits. The float32 sum of the squared
// differences between q and the row: lane i of one 4-wide accumulator adds
// terms i, i+4, …, and the lanes are reduced as (s0+s1)+(s2+s3). Then
// rowLB's tail with query slack eps: 0 for a sum whose exponent is all ones
// (not finite), else √s·(1 − δ) − eps − slack, each step rounded on its own,
// and max against +0 that gives +0 for a −0 or NaN bound. SSE and SSE2 only,
// which every amd64 has.
//
//go:noescape
func envelopeBounds(q *[EnvelopeWidth]float32, eps float64, rows, slack []float32, out []float64)

// momentLanes is momentLanesGo in SSE2, with its bits: lanes 0–1 and 2–3
// each share one register. x must hold len(lanes)·l points.
//
//go:noescape
func momentLanes(x Series, l int, d float64, lanes []laneState)

// residualLanes is residualLanesGo in SSE2, with its bits. x must hold
// len(lanes)·l points.
//
//go:noescape
func residualLanes(x Series, l int, lanes []laneState)
