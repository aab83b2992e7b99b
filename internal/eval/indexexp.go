package eval

import (
	"context"
	"sync"
	"time"

	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/par"
	"sapla/internal/ts"
)

// Tree names as reported in the figures.
const (
	TreeR      = "R-tree"
	TreeDBCH   = "DBCH-tree"
	TreeLinear = "LinearScan"
)

// IndexRow is one method × tree cell of Figures 13–16: pruning power ρ
// (Eq. 14) and accuracy (Eq. 15) averaged over datasets, queries and K;
// ingest and k-NN CPU time; and mean tree shape.
type IndexRow struct {
	Method       string
	Tree         string
	PruningPower float64
	Accuracy     float64
	ReduceTime   time.Duration // per dataset: reducing all series (shared by both trees)
	IngestTime   time.Duration // per dataset: tree construction only
	KNNTime      time.Duration // per query (averaged over K)
	Internal     float64       // mean internal nodes per tree
	Leaf         float64       // mean leaf nodes per tree
	Height       float64
	Queries      int
}

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

// indexAcc accumulates one method × tree cell.
type indexAcc struct {
	rho, accSum          float64
	reduce, ingest, knnT time.Duration
	internal             float64
	leaf                 float64
	height               float64
	trees                int
	queries              int
}

func (a *indexAcc) add(b indexAcc) {
	a.rho += b.rho
	a.accSum += b.accSum
	a.reduce += b.reduce
	a.ingest += b.ingest
	a.knnT += b.knnT
	a.internal += b.internal
	a.leaf += b.leaf
	a.height += b.height
	a.trees += b.trees
	a.queries += b.queries
}

// truthCache computes each dataset's exact-k-NN ground truth at most once,
// shared by every method unit of that dataset.
type truthCache struct {
	once  []sync.Once
	truth [][][]int
	err   []error
}

func newTruthCache(n int) *truthCache {
	return &truthCache{once: make([]sync.Once, n), truth: make([][][]int, n), err: make([]error, n)}
}

func (tc *truthCache) get(di int, data, queries []ts.Series, maxK int) ([][]int, error) {
	tc.once[di].Do(func() {
		tc.truth[di], tc.err[di] = exactKNNIDs(data, queries, maxK)
	})
	return tc.truth[di], tc.err[di]
}

// IndexExperiment regenerates Figures 13, 14, 15 and 16 at one coefficient
// budget M: for every dataset and method it builds an R-tree and a
// DBCH-tree, runs every query at every K through both (plus the linear
// scan), and aggregates pruning power, accuracy, times and tree shapes. The
// same searches also give the K sweep: pruning power and accuracy per
// (method, tree, K) instead of averaged over K.
// Work is stolen at (dataset × method) granularity — each unit builds its
// two trees and answers its queries on a reusable search workspace — and the
// per-unit slots are folded in order, so results are identical for any
// Options.Workers.
func IndexExperiment(opt Options, m int) ([]IndexRow, []KRow, error) {
	methods := opt.Methods()
	nm, nd, nk := len(methods), len(opt.Datasets), len(opt.Ks)
	maxK := 0
	for _, k := range opt.Ks {
		if k > maxK {
			maxK = k
		}
	}

	dc := newDatasetCache(opt)
	tc := newTruthCache(nd)
	// Unit layout: di*(nm+1) + mi, where mi == nm is the dataset's
	// linear-scan baseline.
	nUnits := nd * (nm + 1)
	slots := make([][2]indexAcc, nUnits)
	linSlots := make([]indexAcc, nUnits)
	// Unit u owns K-sweep slots [u*2*nk, (u+1)*2*nk): tree-major, K-minor.
	kSlots := make([]indexAcc, nUnits*2*nk)
	errs := make([]error, nUnits)

	par.Do(context.Background(), nUnits, opt.Workers, func(u int) {
		di, mi := u/(nm+1), u%(nm+1)
		data, queries := dc.get(di)
		if len(data) == 0 {
			return
		}

		if mi == nm {
			// Linear scan baseline timing (method-independent), answered
			// through the batch engine. workers=1: the experiment pool
			// already owns the parallelism.
			scan := index.NewLinearScan()
			for id, c := range data {
				if err := scan.Insert(index.NewEntry(id, c, nil)); err != nil {
					errs[u] = err
					return
				}
			}
			qs := make([]dist.Query, len(queries))
			for qi, q := range queries {
				qs[qi] = dist.Query{Raw: q}
			}
			la := &linSlots[u]
			for range opt.Ks {
				startT := time.Now() //sapla:nondet wall-clock timing is the reported KNNTime column, not part of the ranking
				_, sts, err := index.BatchKNN(scan, qs, maxK, 1)
				la.knnT += time.Since(startT)
				if err != nil {
					errs[u] = err
					return
				}
				for _, st := range sts {
					la.rho += float64(st.Measured) / float64(len(data))
					la.accSum += 1
					la.queries++
				}
			}
			return
		}

		meth := methods[mi]
		truth, err := tc.get(di, data, queries, maxK)
		if err != nil {
			errs[u] = err
			return
		}
		local := &slots[u]

		// Reduce all series once (the dominant share of Figure 14a).
		entries := make([]*index.Entry, len(data))
		startReduce := time.Now() //sapla:nondet wall-clock timing is the reported ReduceTime column, not part of the ranking
		for id, c := range data {
			rep, err := meth.Reduce(c, m)
			if err != nil {
				errs[u] = err
				return
			}
			entries[id] = index.NewEntry(id, c, rep)
		}
		reduceElapsed := time.Since(startReduce)
		local[0].reduce += reduceElapsed
		local[1].reduce += reduceElapsed
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
		trees := []struct {
			idx   index.Index
			stats func() index.TreeStats
			slot  int
		}{
			{rt, rt.Stats, 0},
			{db, db.Stats, 1},
		}
		for _, tr := range trees {
			startT := time.Now() //sapla:nondet wall-clock timing is the reported IngestTime column, not part of the ranking
			for _, e := range entries {
				if err := tr.idx.Insert(e); err != nil {
					errs[u] = err
					return
				}
			}
			a := &local[tr.slot]
			a.ingest += time.Since(startT)
			st := tr.stats()
			a.internal += float64(st.InternalNodes)
			a.leaf += float64(st.LeafNodes)
			a.height += float64(st.Height)
			a.trees++
		}
		ws := index.NewWorkspace()
		for qi, q := range queries {
			qrep, err := meth.Reduce(q, m)
			if err != nil {
				errs[u] = err
				return
			}
			query := dist.NewQuery(q, qrep)
			for ki, k := range opt.Ks {
				if k > len(data) {
					k = len(data)
				}
				for _, tr := range trees {
					startT := time.Now() //sapla:nondet wall-clock timing is the reported KNNTime column, not part of the ranking
					res, st, err := tr.idx.KNNWith(ws, query, k)
					if err != nil {
						errs[u] = err
						return
					}
					el := time.Since(startT)
					rho := float64(st.Measured) / float64(len(data))
					acc := overlapCount(res, truth[qi][:k]) / float64(k)
					a := &local[tr.slot]
					a.knnT += el
					a.rho += rho
					a.accSum += acc
					a.queries++
					ka := &kSlots[(u*2+tr.slot)*nk+ki]
					ka.rho += rho
					ka.accSum += acc
					ka.queries++
				}
			}
		}
	})
	if err := firstError(errs); err != nil {
		return nil, nil, err
	}

	// Sequential fold: dataset-major unit order fixes the accumulation order.
	accs := make([][2]indexAcc, nm)
	kAccs := make([]indexAcc, nm*2*nk)
	var linear indexAcc
	for u := range slots {
		mi := u % (nm + 1)
		if mi == nm {
			linear.add(linSlots[u])
			continue
		}
		accs[mi][0].add(slots[u][0])
		accs[mi][1].add(slots[u][1])
		for j := 0; j < 2*nk; j++ {
			kAccs[mi*2*nk+j].add(kSlots[u*2*nk+j])
		}
	}

	var rows []IndexRow
	for mi, meth := range methods {
		for s, tree := range []string{TreeR, TreeDBCH} {
			a := accs[mi][s]
			if a.queries == 0 {
				continue
			}
			rows = append(rows, IndexRow{
				Method:       meth.Name(),
				Tree:         tree,
				PruningPower: a.rho / float64(a.queries),
				Accuracy:     a.accSum / float64(a.queries),
				ReduceTime:   a.reduce / time.Duration(a.trees),
				IngestTime:   a.ingest / time.Duration(a.trees),
				KNNTime:      a.knnT / time.Duration(a.queries),
				Internal:     a.internal / float64(a.trees),
				Leaf:         a.leaf / float64(a.trees),
				Height:       a.height / float64(a.trees),
				Queries:      a.queries,
			})
		}
	}
	if linear.queries > 0 {
		rows = append(rows, IndexRow{
			Method:       "Euclidean",
			Tree:         TreeLinear,
			PruningPower: linear.rho / float64(linear.queries),
			Accuracy:     linear.accSum / float64(linear.queries),
			KNNTime:      linear.knnT / time.Duration(linear.queries),
			Queries:      linear.queries,
		})
	}

	var kRows []KRow
	for mi, meth := range methods {
		for slot, tree := range []string{TreeR, TreeDBCH} {
			for ki, k := range opt.Ks {
				a := kAccs[(mi*2+slot)*nk+ki]
				if a.queries == 0 {
					continue
				}
				kRows = append(kRows, KRow{
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
	return rows, kRows, nil
}

// exactKNNIDs returns, per query, the ids of its k exact nearest neighbours
// in the (distance, ID) order every index answers in, from the linear scan.
func exactKNNIDs(data, queries []ts.Series, k int) ([][]int, error) {
	scan := index.NewLinearScan()
	for id, c := range data {
		if err := scan.Insert(index.NewEntry(id, c, nil)); err != nil {
			return nil, err
		}
	}
	out := make([][]int, len(queries))
	for qi, q := range queries {
		res, _, err := scan.KNN(dist.Query{Raw: q}, k)
		if err != nil {
			return nil, err
		}
		ids := make([]int, len(res))
		for i, r := range res {
			ids[i] = r.Entry.ID
		}
		out[qi] = ids
	}
	return out, nil
}

// overlapCount counts how many results are true nearest neighbours.
func overlapCount(res []index.Result, truth []int) float64 {
	set := make(map[int]bool, len(truth))
	for _, id := range truth {
		set[id] = true
	}
	var n float64
	for _, r := range res {
		if set[r.Entry.ID] {
			n++
		}
	}
	return n
}
