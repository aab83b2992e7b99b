package reduce

import (
	"context"

	"sapla/internal/par"
	"sapla/internal/repr"
	"sapla/internal/ts"
)

// Batch reduces every series on up to workers goroutines (≤ 0 selects
// GOMAXPROCS), preserving order. Every series is attempted; when any fail,
// the error of the first failing series in data order is returned, whatever
// the worker count. method must be safe for concurrent Reduce calls.
func Batch(method Method, data []ts.Series, m, workers int) ([]repr.Representation, error) {
	out := make([]repr.Representation, len(data))
	errs := make([]error, len(data))
	par.Do(context.Background(), len(data), workers, func(i int) {
		out[i], errs[i] = method.Reduce(data[i], m)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
