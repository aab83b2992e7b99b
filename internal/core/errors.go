package core

import (
	"fmt"

	"sapla/internal/reduce"
)

// errBudget reports an unusable coefficient budget, wrapping
// reduce.ErrBudget so callers can test with errors.Is.
func errBudget(m, n int) error {
	return fmt.Errorf("%w: SAPLA needs M ≥ 3 and N = M/3 segments of ≥ 2 points, got M=%d for n=%d",
		reduce.ErrBudget, m, n)
}
