//go:build !amd64

package ts

// lowerBounds is LowerBounds where no assembly kernel exists: the Go loop.
func lowerBounds(e *Envelope, rows, slack []float32, out []float64) {
	lowerBoundsGo(e, rows, slack, out)
}

// momentLanes is chunkEnvelopes' first pass: the Go loop.
func momentLanes(x Series, l int, d float64, lanes []laneState) {
	momentLanesGo(x, l, d, lanes)
}

// residualLanes is chunkEnvelopes' second pass: the Go loop.
func residualLanes(x Series, l int, lanes []laneState) {
	residualLanesGo(x, l, lanes)
}
