// Package pqueue exercises the determinism analyzer's pqueue scope: the heap
// that orders the index's search frontier lives here, so the package sits
// under the same no-clock/no-randomness/no-map-order contract as eval and index.
package pqueue

import "time"

func stamp() time.Time {
	return time.Now() // want "time.Now in deterministic package; results must not depend on the wall clock"
}

func gather(byID map[int]float64) []float64 {
	var out []float64
	for _, d := range byID {
		out = append(out, d) // want "append to out under map iteration produces a nondeterministic element order"
	}
	return out
}
