package eval

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"time"

	"sapla/internal/par"
	"sapla/internal/ts"
)

// ReductionRow is one bar of Figure 12: a method at a coefficient budget M,
// with its mean max deviation, mean sum of segment max deviations, and mean
// per-series reduction time over all datasets.
type ReductionRow struct {
	Method       string
	M            int
	MaxDev       float64
	SumSegMaxDev float64
	Time         time.Duration
	Series       int // series measured
}

// DatasetRow is one (dataset, method, M) cell of the per-dataset breakdown
// the paper defers to its technical report: reduction quality and time
// measured on that dataset alone.
type DatasetRow struct {
	Dataset      string
	Method       string
	M            int
	MaxDev       float64
	SumSegMaxDev float64
	Time         time.Duration
}

// redAcc accumulates one (method, M) cell of Figure 12.
type redAcc struct {
	dev, segDev float64
	elapsed     time.Duration
	n           int
}

func (a *redAcc) add(b redAcc) {
	a.dev += b.dev
	a.segDev += b.segDev
	a.elapsed += b.elapsed
	a.n += b.n
}

// ReductionExperiment regenerates Figure 12 (a: max deviation, b:
// dimensionality-reduction time): every method reduces every series of every
// dataset at every M. Work is stolen at (dataset × series) granularity from
// the shared pool; every series owns an accumulator slot and the slots are
// folded in series order, so the result is identical for any Options.Workers.
// The same slots folded per dataset give the per-dataset breakdown, sorted by
// dataset, then method order, then M.
func ReductionExperiment(opt Options) ([]ReductionRow, []DatasetRow, error) {
	methods := opt.Methods()
	dc := newDatasetCache(opt)
	dc.generateAll(opt.Workers)

	// One work unit per stored series.
	type unit struct{ di, si int }
	var units []unit
	for di := range opt.Datasets {
		data, _ := dc.get(di)
		for si := range data {
			units = append(units, unit{di, si})
		}
	}
	nm, nk := len(methods), len(opt.Ms)
	slots := make([]redAcc, len(units)*nm*nk)
	errs := make([]error, len(units))
	par.Do(context.Background(), len(units), opt.Workers, func(u int) {
		data, _ := dc.get(units[u].di)
		c := data[units[u].si]
		base := u * nm * nk
		for mi, meth := range methods {
			for ki, m := range opt.Ms {
				startT := time.Now() //sapla:nondet wall-clock timing is the reported Time column, not part of the ranking
				rep, err := meth.Reduce(c, m)
				el := time.Since(startT)
				if err != nil {
					errs[u] = err
					return
				}
				a := &slots[base+mi*nk+ki]
				a.dev += ts.MaxDeviation(c, rep.Reconstruct())
				a.segDev += SumSegMaxDev(c, rep)
				a.elapsed += el
				a.n++
			}
		}
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}

	// Sequential fold in unit order, overall and per dataset.
	accs := make([]redAcc, nm*nk)
	byDataset := make([]redAcc, len(opt.Datasets)*nm*nk)
	for u, un := range units {
		base := u * nm * nk
		for j := range accs {
			accs[j].add(slots[base+j])
			byDataset[un.di*nm*nk+j].add(slots[base+j])
		}
	}

	var rows []ReductionRow
	for mi, meth := range methods {
		for ki, m := range opt.Ms {
			a := accs[mi*nk+ki]
			if a.n == 0 {
				continue
			}
			rows = append(rows, ReductionRow{
				Method:       meth.Name(),
				M:            m,
				MaxDev:       a.dev / float64(a.n),
				SumSegMaxDev: a.segDev / float64(a.n),
				Time:         a.elapsed / time.Duration(a.n),
				Series:       a.n,
			})
		}
	}

	var dRows []DatasetRow
	for di, src := range opt.Datasets {
		for mi, meth := range methods {
			for ki, m := range opt.Ms {
				a := byDataset[(di*nm+mi)*nk+ki]
				if a.n == 0 {
					continue
				}
				dRows = append(dRows, DatasetRow{
					Dataset:      src.DatasetName(),
					Method:       meth.Name(),
					M:            m,
					MaxDev:       a.dev / float64(a.n),
					SumSegMaxDev: a.segDev / float64(a.n),
					Time:         a.elapsed / time.Duration(a.n),
				})
			}
		}
	}
	names := opt.MethodNames()
	slices.SortStableFunc(dRows, func(a, b DatasetRow) int {
		return cmp.Or(strings.Compare(a.Dataset, b.Dataset),
			cmp.Compare(slices.Index(names, a.Method), slices.Index(names, b.Method)),
			cmp.Compare(a.M, b.M))
	})
	return rows, dRows, nil
}
