//go:build !amd64

package ts

// lowerBounds is LowerBounds where no assembly kernel exists: the Go loop.
func lowerBounds(e *Envelope, rows, slack []float32, out []float64) {
	lowerBoundsGo(e, rows, slack, out)
}
