// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6), one benchmark per exhibit, plus ablations of the design
// choices called out in DESIGN.md. Each benchmark reports the figure's
// headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// produces the numbers EXPERIMENTS.md records. The benchmarks run at a
// reduced scale; the full paper scale is available through
// cmd/sapla-experiments -full.
package sapla_test

import (
	"math/rand"
	"testing"

	"sapla"
	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/eval"
	"sapla/internal/reduce"
	"sapla/internal/ts"
	"sapla/internal/ucr"
)

// benchOptions is the reduced scale all figure benchmarks share.
func benchOptions() eval.Options {
	opt := eval.DefaultOptions()
	opt.Datasets = opt.Datasets[:6]
	opt.Cfg = ucr.Config{Length: 128, Count: 40, Queries: 2}
	opt.Ms = []int{12}
	opt.Ks = []int{4, 8, 16}
	return opt
}

func benchWalk(seed int64, n int) ts.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(ts.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

// BenchmarkTable1_ReductionScaling measures per-series reduction time for
// every method at growing lengths — the empirical form of Table 1's
// complexity column (APLA ≈ n²·(N + log n), SAPLA ≈ n·(N + log n), rest
// linear).
func BenchmarkTable1_ReductionScaling(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		series := benchWalk(int64(n), n)
		for _, meth := range eval.DefaultOptions().Methods() {
			b.Run(meth.Name()+"/n="+itoa(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := meth.Reduce(series, 12); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig01_WorkedExample regenerates Figure 1: the four methods on the
// paper's 20-point series, reporting each sum of segment max deviations.
func BenchmarkFig01_WorkedExample(b *testing.B) {
	var rows []eval.WorkedRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.WorkedExample()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SumSegMaxDev, r.Label+"_sumdev")
	}
}

// BenchmarkFig05_SAPLAStages regenerates Figures 5/6/8: SAPLA stage by
// stage on the worked example, reporting each stage's max deviation.
func BenchmarkFig05_SAPLAStages(b *testing.B) {
	var rows []eval.WorkedRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.WorkedStages()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].MaxDev, "splitmerge_dev")
	b.ReportMetric(rows[2].MaxDev, "final_dev")
}

// BenchmarkFig10_Tightness regenerates Figure 10: mean tightness of
// Dist_LB, Dist_PAR and Dist_AE against the true Euclidean distance
// (1.0 = perfectly tight; LB must stay below PAR below AE).
func BenchmarkFig10_Tightness(b *testing.B) {
	opt := benchOptions()
	var rows []eval.TightnessRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = eval.TightnessExperiment(opt, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Tightness, "tight_"+r.Measure)
	}
}

// BenchmarkFig12_Reduction regenerates Figure 12 (a: max deviation,
// b: reduction time), reporting SAPLA's and APLA's cells — the paper's
// claim is SAPLA ≈ APLA quality at a fraction of the time.
func BenchmarkFig12_Reduction(b *testing.B) {
	opt := benchOptions()
	var rows []eval.ReductionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = eval.ReductionExperiment(opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Method {
		case "SAPLA", "APLA", "APCA", "PAA":
			b.ReportMetric(r.MaxDev, r.Method+"_dev")
			b.ReportMetric(float64(r.Time.Nanoseconds()), r.Method+"_ns")
		}
	}
}

// BenchmarkFig13to16_Index regenerates Figures 13 (pruning power ρ and
// accuracy), 14 (ingest and k-NN time) and 15/16 (node counts and height)
// in one run, reporting the SAPLA cells for both trees.
func BenchmarkFig13to16_Index(b *testing.B) {
	opt := benchOptions()
	var rows []eval.IndexRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = eval.IndexExperiment(opt, 12)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Method != "SAPLA" {
			continue
		}
		tag := "rtree"
		if r.Tree == eval.TreeDBCH {
			tag = "dbch"
		}
		b.ReportMetric(r.PruningPower, tag+"_rho")              // Fig. 13a
		b.ReportMetric(r.Accuracy, tag+"_acc")                  // Fig. 13b
		b.ReportMetric(float64(r.IngestTime), tag+"_ingest_ns") // Fig. 14a
		b.ReportMetric(float64(r.KNNTime), tag+"_knn_ns")       // Fig. 14b
		b.ReportMetric(r.Internal, tag+"_internal")             // Fig. 15a
		b.ReportMetric(r.Leaf, tag+"_leaf")                     // Fig. 15b
		b.ReportMetric(r.Internal+r.Leaf, tag+"_total")         // Fig. 16a
		b.ReportMetric(r.Height, tag+"_height")                 // Fig. 16b
	}
}

// BenchmarkAblation_EndpointMovement quantifies stage 3's contribution
// (DESIGN.md ablation: Figures 6 → 8).
func BenchmarkAblation_EndpointMovement(b *testing.B) {
	series := benchWalk(42, 512)
	full := core.New()
	noMove := &core.SAPLA{SkipEndpointMove: true}
	var devFull, devNoMove float64
	for i := 0; i < b.N; i++ {
		rf, err := full.Reduce(series, 24)
		if err != nil {
			b.Fatal(err)
		}
		rn, err := noMove.Reduce(series, 24)
		if err != nil {
			b.Fatal(err)
		}
		devFull = ts.MaxDeviation(series, rf.Reconstruct())
		devNoMove = ts.MaxDeviation(series, rn.Reconstruct())
	}
	b.ReportMetric(devFull, "dev_full")
	b.ReportMetric(devNoMove, "dev_nomove")
}

// BenchmarkAblation_Refine quantifies the β^sm/β^ms refinement loop.
func BenchmarkAblation_Refine(b *testing.B) {
	series := benchWalk(43, 512)
	full := core.New()
	noRefine := &core.SAPLA{SkipRefine: true}
	var devFull, devNoRefine float64
	for i := 0; i < b.N; i++ {
		rf, err := full.Reduce(series, 24)
		if err != nil {
			b.Fatal(err)
		}
		rn, err := noRefine.Reduce(series, 24)
		if err != nil {
			b.Fatal(err)
		}
		devFull = ts.MaxDeviation(series, rf.Reconstruct())
		devNoRefine = ts.MaxDeviation(series, rn.Reconstruct())
	}
	b.ReportMetric(devFull, "dev_full")
	b.ReportMetric(devNoRefine, "dev_norefine")
}

// BenchmarkAblation_DBCHSafeBound compares the paper's Section 5.3 node
// distance against the triangle-safe variant (pruning vs accuracy).
func BenchmarkAblation_DBCHSafeBound(b *testing.B) {
	d, err := ucr.ByName("EOGHorizontalSignal")
	if err != nil {
		b.Fatal(err)
	}
	data, qs := d.Generate(ucr.Config{Length: 128, Count: 80, Queries: 3})
	meth := core.New()
	var rhoPaper, rhoSafe float64
	for i := 0; i < b.N; i++ {
		paperTree, _ := sapla.NewDBCH("SAPLA")
		safeTree, _ := sapla.NewDBCH("SAPLA")
		safeTree.SafeBound = true
		for id, inst := range data {
			rep, err := meth.Reduce(inst.Values, 12)
			if err != nil {
				b.Fatal(err)
			}
			e := sapla.NewEntry(id, inst.Values, rep)
			if err := paperTree.Insert(e); err != nil {
				b.Fatal(err)
			}
			if err := safeTree.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
		rhoPaper, rhoSafe = 0, 0
		for _, inst := range qs {
			rep, _ := meth.Reduce(inst.Values, 12)
			q := dist.NewQuery(inst.Values, rep)
			_, st1, err := paperTree.KNN(q, 8)
			if err != nil {
				b.Fatal(err)
			}
			_, st2, err := safeTree.KNN(q, 8)
			if err != nil {
				b.Fatal(err)
			}
			rhoPaper += float64(st1.Measured) / float64(len(data))
			rhoSafe += float64(st2.Measured) / float64(len(data))
		}
	}
	b.ReportMetric(rhoPaper/float64(len(qs)), "rho_paper_rule")
	b.ReportMetric(rhoSafe/float64(len(qs)), "rho_safe_rule")
}

// BenchmarkAblation_BulkLoad compares sequential R-tree insertion against
// STR bulk loading (build time and packing).
func BenchmarkAblation_BulkLoad(b *testing.B) {
	meth := core.New()
	const n, m = 128, 12
	entries := make([]*sapla.Entry, 300)
	for i := range entries {
		raw := benchWalk(int64(i+500), n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			b.Fatal(err)
		}
		entries[i] = sapla.NewEntry(i, raw, rep)
	}
	var seqNodes, bulkNodes int
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, _ := sapla.NewRTree("SAPLA", n, m)
			for _, e := range entries {
				if err := tree.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
			seqNodes = tree.Stats().TotalNodes()
		}
		b.ReportMetric(float64(seqNodes), "nodes")
	})
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, _ := sapla.NewRTree("SAPLA", n, m)
			if err := tree.BulkLoad(entries); err != nil {
				b.Fatal(err)
			}
			bulkNodes = tree.Stats().TotalNodes()
		}
		b.ReportMetric(float64(bulkNodes), "nodes")
	})
}

// BenchmarkReduce measures raw per-series reduction cost per method at the
// paper's n = 1024.
func BenchmarkReduce(b *testing.B) {
	series := benchWalk(44, 1024)
	for _, meth := range eval.DefaultOptions().Methods() {
		b.Run(meth.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := meth.Reduce(series, 12); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistances measures the per-pair cost of the Section 5 measures.
func BenchmarkDistances(b *testing.B) {
	q := benchWalk(45, 1024)
	c := benchWalk(46, 1024)
	sp := core.New()
	qr, err := sp.Reduce(q, 12)
	if err != nil {
		b.Fatal(err)
	}
	cr, err := sp.Reduce(c, 12)
	if err != nil {
		b.Fatal(err)
	}
	query := dist.NewQuery(q, qr)
	for _, meas := range []dist.AdaptiveMeasure{dist.MeasurePAR, dist.MeasureLB, dist.MeasureAE} {
		b.Run(string(meas), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dist.Adaptive(meas, query, cr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("Euclidean", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ts.EuclideanSq(q, c)
		}
	})
}

// BenchmarkIndexInsert measures per-entry ingest cost for both trees
// (Figure 14a's shape: DBCH ingest costs more).
func BenchmarkIndexInsert(b *testing.B) {
	meth := core.New()
	const n, m = 128, 12
	entries := make([]*sapla.Entry, 200)
	for i := range entries {
		raw := benchWalk(int64(i+100), n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			b.Fatal(err)
		}
		entries[i] = sapla.NewEntry(i, raw, rep)
	}
	b.Run("R-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, _ := sapla.NewRTree("SAPLA", n, m)
			for _, e := range entries {
				if err := tree.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("DBCH-tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree, _ := sapla.NewDBCH("SAPLA")
			for _, e := range entries {
				if err := tree.Insert(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// itoa avoids pulling strconv into every b.Run name construction.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Baselines sanity: the bench harness exercises every method name used in
// the figures (guards against registry drift).
func TestBenchMethodsCoverPaper(t *testing.T) {
	names := map[string]bool{}
	for _, m := range eval.DefaultOptions().Methods() {
		names[m.Name()] = true
	}
	for _, m := range reduce.Baselines() {
		if !names[m.Name()] {
			t.Fatalf("method %s missing from harness", m.Name())
		}
	}
	if !names["SAPLA"] {
		t.Fatal("SAPLA missing from harness")
	}
}
