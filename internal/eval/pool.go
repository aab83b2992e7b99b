package eval

import (
	"context"
	"sync"

	"sapla/internal/par"
	"sapla/internal/ts"
	"sapla/internal/ucr"
)

// datasetCache generates each dataset at most once, on demand, whichever
// unit touches it first — the piece that lets experiments parallelise below
// dataset granularity without regenerating data per unit. It keeps each
// dataset's stored series and held-out queries. Safe for concurrent use.
type datasetCache struct {
	opt     Options
	once    []sync.Once
	data    [][]ts.Series
	queries [][]ts.Series
}

func newDatasetCache(opt Options) *datasetCache {
	n := len(opt.Datasets)
	return &datasetCache{
		opt:     opt,
		once:    make([]sync.Once, n),
		data:    make([][]ts.Series, n),
		queries: make([][]ts.Series, n),
	}
}

// generate fills dataset di's slots on first use.
func (dc *datasetCache) generate(di int) {
	dc.once[di].Do(func() {
		train, test := dc.opt.Datasets[di].Generate(dc.opt.Cfg)
		dc.data[di], dc.queries[di] = seriesOf(train), seriesOf(test)
	})
}

// get returns dataset di's stored series and held-out queries.
func (dc *datasetCache) get(di int) (data, queries []ts.Series) {
	dc.generate(di)
	return dc.data[di], dc.queries[di]
}

// generateAll forces every dataset into the cache, in parallel. Experiments
// that need the generated shapes up front (to lay out work units) call this
// instead of generating lazily.
func (dc *datasetCache) generateAll(workers int) {
	par.Do(context.Background(), len(dc.opt.Datasets), workers, dc.generate)
}

func seriesOf(insts []ucr.Instance) []ts.Series {
	out := make([]ts.Series, len(insts))
	for i := range insts {
		out[i] = insts[i].Values
	}
	return out
}

// firstError returns the first non-nil error in slot order — a deterministic
// replacement for the old "whichever goroutine locked the mutex first".
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
