package eval

import (
	"context"

	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/par"
)

// KRow is one (method, tree, K) point of the K-sweep behind Figure 13: how
// pruning power and accuracy respond to the neighbourhood size.
type KRow struct {
	Method       string
	Tree         string
	K            int
	PruningPower float64
	Accuracy     float64
	Queries      int
}

// IndexByK runs the index experiment and reports pruning power and accuracy
// separately per K instead of aggregated. Like IndexExperiment, work is
// stolen at (dataset × method) granularity and folded in order, so results
// are identical for any Options.Workers.
func IndexByK(opt Options, m int) ([]KRow, error) {
	methods := opt.Methods()
	nm, nd, nk := len(methods), len(opt.Datasets), len(opt.Ks)
	maxK := 0
	for _, k := range opt.Ks {
		if k > maxK {
			maxK = k
		}
	}
	type acc struct {
		rho, accSum float64
		queries     int
	}

	dc := newDatasetCache(opt)
	tc := newTruthCache(nd)
	nUnits := nd * nm
	// Unit u = di*nm + mi owns slots [u*2*nk, (u+1)*2*nk): tree-major, K-minor.
	slots := make([]acc, nUnits*2*nk)
	errs := make([]error, nUnits)

	par.Do(context.Background(), nUnits, opt.Workers, func(u int) {
		di, mi := u/nm, u%nm
		data, queries := dc.get(di)
		if len(data) == 0 {
			return
		}
		truth := tc.get(di, data, queries, maxK)
		meth := methods[mi]
		entries := make([]*index.Entry, len(data))
		for id, c := range data {
			rep, err := meth.Reduce(c, m)
			if err != nil {
				errs[u] = err
				return
			}
			entries[id] = index.NewEntry(id, c, rep)
		}
		rt, err := index.NewRTree(meth.Name(), opt.Cfg.Length, m, opt.MinFill, opt.MaxFill)
		if err != nil {
			errs[u] = err
			return
		}
		db, err := index.NewDBCH(meth.Name(), opt.MinFill, opt.MaxFill)
		if err != nil {
			errs[u] = err
			return
		}
		for _, e := range entries {
			if err := rt.Insert(e); err != nil {
				errs[u] = err
				return
			}
			if err := db.Insert(e); err != nil {
				errs[u] = err
				return
			}
		}
		ws := index.NewWorkspace()
		base := u * 2 * nk
		for qi, q := range queries {
			rep, err := meth.Reduce(q, m)
			if err != nil {
				errs[u] = err
				return
			}
			query := dist.NewQuery(q, rep)
			for ki, k := range opt.Ks {
				if k > len(data) {
					k = len(data)
				}
				for slot, idx := range []index.WorkspaceSearcher{rt, db} {
					res, st, err := idx.KNNWith(ws, query, k)
					if err != nil {
						errs[u] = err
						return
					}
					a := &slots[base+slot*nk+ki]
					a.rho += float64(st.Measured) / float64(len(data))
					a.accSum += overlapCount(res, truth[qi][:k]) / float64(k)
					a.queries++
				}
			}
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	// Sequential fold in unit order.
	accs := make([]acc, nm*2*nk)
	for u := 0; u < nUnits; u++ {
		mi := u % nm
		for j := 0; j < 2*nk; j++ {
			s := slots[u*2*nk+j]
			a := &accs[mi*2*nk+j]
			a.rho += s.rho
			a.accSum += s.accSum
			a.queries += s.queries
		}
	}

	var rows []KRow
	for mi, meth := range methods {
		for slot, tree := range []string{TreeR, TreeDBCH} {
			for ki, k := range opt.Ks {
				a := accs[mi*2*nk+slot*nk+ki]
				if a.queries == 0 {
					continue
				}
				rows = append(rows, KRow{
					Method:       meth.Name(),
					Tree:         tree,
					K:            k,
					PruningPower: a.rho / float64(a.queries),
					Accuracy:     a.accSum / float64(a.queries),
					Queries:      a.queries,
				})
			}
		}
	}
	return rows, nil
}
