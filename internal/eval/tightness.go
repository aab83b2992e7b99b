package eval

import (
	"context"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/par"
	"sapla/internal/repr"
	"sapla/internal/ts"
)

// TightnessRow summarises one measure of Figure 10 over many query/candidate
// pairs: its mean value, its mean ratio to the true Euclidean distance
// (1 = perfectly tight), and how often it exceeded the Euclidean distance
// (lower-bound violations).
type TightnessRow struct {
	Measure    string
	Mean       float64
	Tightness  float64 // mean measure ÷ Euclidean distance
	Violations int     // pairs where measure > Euclidean distance
	Pairs      int
}

// TightnessExperiment regenerates Figure 10's comparison of Dist_LB,
// Dist_PAR and Dist_AE on SAPLA representations: for every dataset each
// query is compared against every stored series. Each dataset owns an
// accumulator slot folded in order, so results are identical for any
// Options.Workers.
func TightnessExperiment(opt Options, m int) ([]TightnessRow, error) {
	measures := []dist.AdaptiveMeasure{dist.MeasureLB, dist.MeasurePAR, dist.MeasureAE}
	type acc struct {
		sum, ratio float64
		violations int
		pairs      int
	}

	dc := newDatasetCache(opt)
	nd := len(opt.Datasets)
	slots := make([]acc, nd*len(measures))
	errs := make([]error, nd)

	par.Do(context.Background(), nd, opt.Workers, func(di int) {
		data, queries := dc.get(di)
		sapla := core.New()
		local := slots[di*len(measures) : (di+1)*len(measures)]
		reps := make([]repr.Representation, len(data))
		for i, c := range data {
			rep, err := sapla.Reduce(c, m)
			if err != nil {
				errs[di] = err
				return
			}
			reps[i] = rep
		}
		for _, q := range queries {
			qrep, err := sapla.Reduce(q, m)
			if err != nil {
				errs[di] = err
				return
			}
			query := dist.NewQuery(q, qrep)
			for i, c := range data {
				d, err := ts.Euclidean(q, c)
				if err != nil || d == 0 { //sapla:floateq identical pairs have exactly zero distance; skipped before the tightness division
					continue
				}
				for mi, meas := range measures {
					v, err := dist.Adaptive(meas, query, reps[i])
					if err != nil {
						errs[di] = err
						return
					}
					local[mi].sum += v
					local[mi].ratio += v / d
					if v > d+1e-9 {
						local[mi].violations++
					}
					local[mi].pairs++
				}
			}
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	accs := make([]acc, len(measures))
	for di := 0; di < nd; di++ {
		for mi := range accs {
			s := slots[di*len(measures)+mi]
			accs[mi].sum += s.sum
			accs[mi].ratio += s.ratio
			accs[mi].violations += s.violations
			accs[mi].pairs += s.pairs
		}
	}

	rows := make([]TightnessRow, len(measures))
	for i, meas := range measures {
		a := accs[i]
		rows[i] = TightnessRow{Measure: string(meas), Pairs: a.pairs, Violations: a.violations}
		if a.pairs > 0 {
			rows[i].Mean = a.sum / float64(a.pairs)
			rows[i].Tightness = a.ratio / float64(a.pairs)
		}
	}
	return rows, nil
}
