package ts

// kernelRows is the number of rows one envelopeSums call sums: LowerBounds
// keeps their float32 sums on its stack, 1 KiB, and a Flat block
// (index.flatRows) is one call.
const kernelRows = 256

// lowerBounds is LowerBounds on amd64: envelopeSums adds each row's squared
// differences from the query's vector, kernelRows rows at a time, and the
// float64 tail runs in Go.
func lowerBounds(e *Envelope, rows, slack []float32, out []float64) {
	rows = rows[:len(out)*EnvelopeWidth]
	slack = slack[:len(out)]
	var sums [kernelRows]float32
	for len(out) > 0 {
		k := min(len(out), kernelRows)
		envelopeSums(&e.v, rows[:k*EnvelopeWidth], sums[:k])
		for i, s := range sums[:k] {
			out[i] = e.rowLB(s, slack[i])
		}
		rows, slack, out = rows[k*EnvelopeWidth:], slack[k:], out[k:]
	}
}

// envelopeSums writes, for each of the len(sums) rows of rows (EnvelopeWidth
// values each; rows must hold them all), the float32 sum of the squared
// differences between q and the row, with lowerBoundsGo's bits: lane i of
// one 4-wide accumulator adds terms i, i+4, …, and the lanes are reduced as
// (s0+s1)+(s2+s3). SSE and SSE2 only, which every amd64 has.
//
//go:noescape
func envelopeSums(q *[EnvelopeWidth]float32, rows, sums []float32)
