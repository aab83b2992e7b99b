package sapla_test

import (
	"testing"

	"sapla"
	"sapla/internal/eval"
	"sapla/internal/ucr"
)

// TestEndToEndPipeline walks the whole system once: generate a dataset,
// reduce with every method, build every index, answer k-NN and range
// queries.
func TestEndToEndPipeline(t *testing.T) {
	d, err := sapla.DatasetByName("EOGHorizontalSignal")
	if err != nil {
		t.Fatal(err)
	}
	const n, m, count, k = 128, 12, 60, 5
	data, qs := d.Generate(sapla.DataConfig{Length: n, Count: count, Queries: 2})

	for _, meth := range sapla.Methods() {
		rt, err := sapla.NewRTree(meth.Name(), n, m)
		if err != nil {
			t.Fatal(err)
		}
		db, err := sapla.NewDBCH(meth.Name())
		if err != nil {
			t.Fatal(err)
		}
		scan := sapla.NewLinearScan()
		for id, inst := range data {
			rep, err := meth.Reduce(inst.Values, m)
			if err != nil {
				t.Fatalf("%s: %v", meth.Name(), err)
			}
			e := sapla.NewEntry(id, inst.Values, rep)
			for _, idx := range []sapla.Index{rt, db, scan} {
				if err := idx.Insert(e); err != nil {
					t.Fatalf("%s: %v", meth.Name(), err)
				}
			}
		}

		for _, inst := range qs {
			qrep, err := meth.Reduce(inst.Values, m)
			if err != nil {
				t.Fatal(err)
			}
			query := sapla.NewQuery(inst.Values, qrep)
			truthRes, _, err := scan.KNN(query, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range []sapla.Index{rt, db} {
				res, stats, err := idx.KNN(query, k)
				if err != nil {
					t.Fatalf("%s: %v", meth.Name(), err)
				}
				if len(res) != k || stats.Measured == 0 {
					t.Fatalf("%s: %d results, %d measured", meth.Name(), len(res), stats.Measured)
				}
			}
			// Range query around the exact k-th distance returns ≥ 1 result.
			radius := truthRes[len(truthRes)-1].Dist
			rr, _, err := db.Range(query, radius)
			if err != nil {
				t.Fatalf("%s: %v", meth.Name(), err)
			}
			if len(rr) == 0 {
				t.Fatalf("%s: empty range result", meth.Name())
			}
		}
	}
}

// TestFullArchiveSmoke pushes a tiny configuration of every one of the 117
// datasets through reduction with every method — ensuring no dataset family
// breaks any reducer. Skipped with -short.
func TestFullArchiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full archive smoke test")
	}
	opt := eval.DefaultOptions()
	opt.Datasets = eval.Sources(ucr.Datasets())
	opt.Cfg = ucr.Config{Length: 64, Count: 4, Queries: 1}
	opt.Ms = []int{12}
	rows, _, err := eval.ReductionExperiment(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Series != 117*4 {
			t.Fatalf("%s: reduced %d series, want %d", r.Method, r.Series, 117*4)
		}
	}
}
