package eval

import (
	"math/rand"
	"time"

	"sapla/internal/ts"
)

// ScalingRow is one point of the Table 1 complexity verification: a method's
// measured per-series reduction time at series length n.
type ScalingRow struct {
	Method string
	N      int
	Time   time.Duration
}

// ScalingExperiment verifies Table 1 empirically: every method reduces
// random-walk series of increasing lengths at a fixed budget M, timing each.
// The shape to look for: APLA grows quadratically (an O(n² log n) error table
// under an O(Nn²) DP), SAPLA and APCA stay near-linear (SAPLA ≈ n·(N+log n)),
// PLA/PAA/PAALM/SAX linear.
func ScalingExperiment(lengths []int, m, repeats int) ([]ScalingRow, error) {
	methods := DefaultOptions().Methods()
	if repeats < 1 {
		repeats = 1
	}
	var rows []ScalingRow
	for _, n := range lengths {
		rng := rand.New(rand.NewSource(int64(n))) //sapla:nondet seeded with the series length, so the walk is reproducible across runs
		series := make([]ts.Series, repeats)
		for i := range series {
			s := make(ts.Series, n)
			var v float64
			for j := range s {
				v += rng.NormFloat64()
				s[j] = v
			}
			series[i] = s
		}
		for _, meth := range methods {
			start := time.Now() //sapla:nondet wall-clock timing is the reported Time column, not part of the ranking
			for _, s := range series {
				if _, err := meth.Reduce(s, m); err != nil {
					return nil, err
				}
			}
			rows = append(rows, ScalingRow{
				Method: meth.Name(),
				N:      n,
				Time:   time.Since(start) / time.Duration(repeats),
			})
		}
	}
	return rows, nil
}
