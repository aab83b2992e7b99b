package eval

import (
	"context"

	"sapla/internal/mining"
	"sapla/internal/par"
)

// ClassificationRow is the k-NN classification quality over the archive —
// the paper's motivating application (Section 1: "k-Nearest Neighbor is
// popularly used for classification"). The classifier's search is exact, so
// the accuracy is the exact k-NN's.
type ClassificationRow struct {
	K        int
	Accuracy float64 // mean over datasets
	MeanRho  float64 // mean pruning power of the classification queries
	Datasets int
}

// ClassificationExperiment trains a k-NN classifier on every dataset's stored
// series and classifies the held-out queries, one dataset per unit of the
// shared pool. The units fold in dataset order, so the row is identical for
// any Options.Workers.
func ClassificationExperiment(opt Options, k int) (ClassificationRow, error) {
	nd := len(opt.Datasets)
	accuracy, rho := make([]float64, nd), make([]float64, nd)
	tested := make([]bool, nd)
	errs := make([]error, nd)
	par.Do(context.Background(), nd, opt.Workers, func(di int) {
		train, test := opt.Datasets[di].Generate(opt.Cfg)
		if len(test) == 0 {
			return
		}
		clf, err := mining.NewClassifier(k)
		if err == nil {
			err = clf.Train(train)
		}
		if err == nil {
			accuracy[di], rho[di], err = clf.Evaluate(test)
		}
		errs[di], tested[di] = err, err == nil
	})
	if err := firstError(errs); err != nil {
		return ClassificationRow{}, err
	}

	row := ClassificationRow{K: k}
	for di, ok := range tested {
		if ok {
			row.Accuracy += accuracy[di]
			row.MeanRho += rho[di]
			row.Datasets++
		}
	}
	if row.Datasets > 0 {
		row.Accuracy /= float64(row.Datasets)
		row.MeanRho /= float64(row.Datasets)
	}
	return row, nil
}
