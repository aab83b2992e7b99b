package eval

import (
	"context"
	"sort"
	"time"

	"sapla/internal/par"
	"sapla/internal/ts"
)

// DatasetRow is one (dataset, method) cell of the per-dataset breakdown the
// paper defers to its technical report: reduction quality and time measured
// on that dataset alone.
type DatasetRow struct {
	Dataset      string
	Method       string
	M            int
	MaxDev       float64
	SumSegMaxDev float64
	Time         time.Duration
}

// ReductionByDataset runs the Figure 12 measurement per dataset instead of
// aggregated, at a single coefficient budget m. Rows are sorted by dataset
// then method order. Work is stolen at (dataset × method) granularity; each
// unit owns its row, so results are identical for any Options.Workers.
func ReductionByDataset(opt Options, m int) ([]DatasetRow, error) {
	methods := opt.Methods()
	names := opt.MethodNames()
	order := map[string]int{}
	for i, n := range names {
		order[n] = i
	}

	nm, nd := len(methods), len(opt.Datasets)
	dc := newDatasetCache(opt)
	slots := make([]DatasetRow, nd*nm)
	filled := make([]bool, nd*nm)
	errs := make([]error, nd*nm)

	par.Do(context.Background(), nd*nm, opt.Workers, func(u int) {
		di, mi := u/nm, u%nm
		data, _ := dc.get(di)
		if len(data) == 0 {
			return
		}
		meth := methods[mi]
		var dev, segDev float64
		var elapsed time.Duration
		for _, c := range data {
			startT := time.Now() //sapla:nondet wall-clock timing is the reported Time column, not part of the ranking
			rep, err := meth.Reduce(c, m)
			elapsed += time.Since(startT)
			if err != nil {
				errs[u] = err
				return
			}
			dev += ts.MaxDeviation(c, rep.Reconstruct())
			segDev += SumSegMaxDev(c, rep)
		}
		n := float64(len(data))
		slots[u] = DatasetRow{
			Dataset:      opt.Datasets[di].DatasetName(),
			Method:       meth.Name(),
			M:            m,
			MaxDev:       dev / n,
			SumSegMaxDev: segDev / n,
			Time:         elapsed / time.Duration(len(data)),
		}
		filled[u] = true
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	rows := make([]DatasetRow, 0, nd*nm)
	for u, ok := range filled {
		if ok {
			rows = append(rows, slots[u])
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Dataset != rows[j].Dataset {
			return rows[i].Dataset < rows[j].Dataset
		}
		return order[rows[i].Method] < order[rows[j].Method]
	})
	return rows, nil
}
