package eval

import (
	"context"

	"sapla/internal/mining"
	"sapla/internal/par"
)

// ClassificationRow is one method's k-NN classification quality over the
// archive — the paper's motivating application (Section 1: "k-Nearest
// Neighbor is popularly used for classification").
type ClassificationRow struct {
	Method   string
	K        int
	Accuracy float64 // mean over datasets
	MeanRho  float64 // mean pruning power of the classification queries
	Datasets int
}

// ClassificationExperiment trains a k-NN classifier per method on every
// dataset's stored series and classifies the held-out queries. Work is
// stolen at (dataset × method) granularity from the shared pool — instead
// of the old unbounded goroutine-per-dataset fan-out — and folded in order,
// so results are identical for any Options.Workers.
func ClassificationExperiment(opt Options, m, k int) ([]ClassificationRow, error) {
	methods := opt.Methods()
	type acc struct {
		accSum, rhoSum float64
		datasets       int
	}

	nm, nd := len(methods), len(opt.Datasets)
	slots := make([]acc, nd*nm)
	errs := make([]error, nd*nm)
	gens := newDatasetCache(opt)

	par.Do(context.Background(), nd*nm, opt.Workers, func(u int) {
		di, mi := u/nm, u%nm
		train, test := gens.instances(di)
		if len(test) == 0 {
			return
		}
		meth := methods[mi]
		clf, err := mining.NewClassifier(meth, m, k)
		if err == nil {
			err = clf.Train(train)
		}
		var accuracy, rho float64
		if err == nil {
			accuracy, rho, err = clf.Evaluate(test)
		}
		if err != nil {
			errs[u] = err
			return
		}
		a := &slots[u]
		a.accSum += accuracy
		a.rhoSum += rho
		a.datasets++
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	accs := make([]acc, nm)
	for u := range slots {
		mi := u % nm
		accs[mi].accSum += slots[u].accSum
		accs[mi].rhoSum += slots[u].rhoSum
		accs[mi].datasets += slots[u].datasets
	}

	rows := make([]ClassificationRow, 0, nm)
	for mi, meth := range methods {
		a := accs[mi]
		if a.datasets == 0 {
			continue
		}
		rows = append(rows, ClassificationRow{
			Method:   meth.Name(),
			K:        k,
			Accuracy: a.accSum / float64(a.datasets),
			MeanRho:  a.rhoSum / float64(a.datasets),
			Datasets: a.datasets,
		})
	}
	return rows, nil
}
