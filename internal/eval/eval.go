// Package eval is the experiment harness that regenerates every table and
// figure of the paper's Section 6: max deviation and reduction time
// (Fig. 12), pruning power and accuracy over R-tree vs DBCH-tree (Fig. 13),
// ingest and k-NN CPU time (Fig. 14), tree shape statistics (Figs. 15–16),
// the worked 20-point example (Figs. 1, 5, 6, 8), the lower-bound tightness
// comparison (Fig. 10), and the complexity scaling behind Table 1.
package eval

import (
	"math"

	"sapla/internal/core"
	"sapla/internal/reduce"
	"sapla/internal/repr"
	"sapla/internal/ts"
	"sapla/internal/ucr"
)

// Options fixes an experiment's scale and parameters. DefaultOptions runs in
// seconds on a laptop; FullOptions reproduces the paper's scale
// (117 datasets × 100 series × length 1024, M={12,18,24}, K={4..64}).
type Options struct {
	Datasets []ucr.Source
	Cfg      ucr.Config
	Ms       []int
	Ks       []int
	MinFill  int
	MaxFill  int
	// Workers bounds dataset-level parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultOptions is a reduced-scale configuration spanning all twelve signal
// families, suitable for tests and quick runs.
func DefaultOptions() Options {
	names := []string{
		"CBF", "ECG200", "EOGHorizontalSignal", "TwoPatterns", "Lightning2",
		"ItalyPowerDemand", "InsectWingbeatSound", "SyntheticControl",
		"FreezerRegularTrain", "GunPoint", "Coffee", "Mallat",
	}
	var ds []ucr.Source
	for _, n := range names {
		d, err := ucr.ByName(n)
		if err != nil {
			panic(err)
		}
		ds = append(ds, d)
	}
	return Options{
		Datasets: ds,
		Cfg:      ucr.Config{Length: 256, Count: 50, Queries: 3},
		Ms:       []int{12, 18, 24},
		Ks:       []int{4, 8, 16, 32, 64},
		MinFill:  2,
		MaxFill:  5,
	}
}

// FullOptions is the paper's scale.
func FullOptions() Options {
	o := DefaultOptions()
	o.Datasets = Sources(ucr.Datasets())
	o.Cfg = ucr.Config{Length: 1024, Count: 100, Queries: 5}
	return o
}

// Sources adapts a slice of synthetic datasets to the Source interface.
func Sources(ds []ucr.Dataset) []ucr.Source {
	out := make([]ucr.Source, len(ds))
	for i, d := range ds {
		out[i] = d
	}
	return out
}

// Methods returns the eight methods in the paper's comparison.
func (o Options) Methods() []reduce.Method {
	return []reduce.Method{
		core.New(),
		reduce.NewAPLA(),
		reduce.NewAPCA(),
		reduce.NewPLA(),
		reduce.NewPAA(),
		reduce.NewPAALM(),
		reduce.NewCHEBY(),
		reduce.NewSAX(),
	}
}

// MethodNames returns the method names in comparison order.
func (o Options) MethodNames() []string {
	ms := o.Methods()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name()
	}
	return out
}

// SumSegMaxDev is Figure 1's quality metric: the sum over a representation's
// own segments of the per-segment max deviation.
func SumSegMaxDev(c ts.Series, rep repr.Representation) float64 {
	rec := rep.Reconstruct()
	var ends []int
	switch r := rep.(type) {
	case repr.Linear:
		ends = r.Endpoints()
	case repr.Constant:
		for _, s := range r.Segs {
			ends = append(ends, s.R)
		}
	default:
		for i := 0; i < rep.Segments(); i++ {
			_, hi := repr.FrameBounds(rep.Len(), rep.Segments(), i)
			ends = append(ends, hi-1)
		}
	}
	var sum float64
	start := 0
	for _, e := range ends {
		var m float64
		for t := start; t <= e; t++ {
			if d := math.Abs(c[t] - rec[t]); d > m {
				m = d
			}
		}
		sum += m
		start = e + 1
	}
	return sum
}
