package sapla_test

import (
	"math"
	"math/rand"
	"testing"

	"sapla"
)

func randWalk(seed int64, n int) sapla.Series {
	rng := rand.New(rand.NewSource(seed))
	s := make(sapla.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	c := randWalk(1, 256)
	rep, err := sapla.SAPLA().Reduce(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments() != 4 {
		t.Fatalf("segments = %d", rep.Segments())
	}
	rec := rep.Reconstruct()
	if len(rec) != len(c) {
		t.Fatal("bad reconstruction length")
	}
	if d := sapla.MaxDeviation(c, rep); d <= 0 || math.IsNaN(d) {
		t.Fatalf("max deviation = %v", d)
	}
}

func TestPublicAPIStages(t *testing.T) {
	c := randWalk(2, 200)
	initRep, sm, final, err := sapla.SAPLAStages(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	if initRep.Segments() == 0 || sm.Segments() != 4 || final.Segments() != 4 {
		t.Fatal("bad stage segment counts")
	}
}

func TestPublicAPIMethods(t *testing.T) {
	ms := sapla.Methods()
	if len(ms) != 8 || ms[0].Name() != "SAPLA" {
		t.Fatalf("Methods() = %d entries, first %s", len(ms), ms[0].Name())
	}
	for _, name := range []string{"SAPLA", "APLA", "APCA", "PLA", "PAA", "PAALM", "CHEBY", "SAX"} {
		m, err := sapla.MethodByName(name)
		if err != nil || m.Name() != name {
			t.Fatalf("MethodByName(%s) = %v, %v", name, m, err)
		}
	}
	if _, err := sapla.MethodByName("nope"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestPublicAPIDistances(t *testing.T) {
	q := randWalk(3, 128)
	c := randWalk(4, 128)
	qr, _ := sapla.SAPLA().Reduce(q, 12)
	cr, _ := sapla.SAPLA().Reduce(c, 12)
	par, err := sapla.DistPAR(qr, cr)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := sapla.DistLB(q, cr)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := sapla.DistAE(q, cr)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := sapla.Euclidean(q, c)
	if lb > d+1e-9 {
		t.Fatalf("DistLB %v > Euclid %v", lb, d)
	}
	if par < 0 || ae < 0 {
		t.Fatal("negative distances")
	}
}

func TestPublicAPIIndexRoundTrip(t *testing.T) {
	const n, m, count, k = 96, 12, 50, 5
	meth := sapla.SAPLA()
	rt, err := sapla.NewRTree("SAPLA", n, m)
	if err != nil {
		t.Fatal(err)
	}
	db, err := sapla.NewDBCH("SAPLA")
	if err != nil {
		t.Fatal(err)
	}
	scan := sapla.NewLinearScan()
	for id := 0; id < count; id++ {
		raw := randWalk(int64(id+10), n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		e := sapla.NewEntry(id, raw, rep)
		for _, idx := range []sapla.Index{rt, db, scan} {
			if err := idx.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := randWalk(999, n)
	qr, _ := meth.Reduce(q, m)
	query := sapla.NewQuery(q, qr)
	exact, _, err := scan.KNN(query, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []sapla.Index{rt, db} {
		res, stats, err := idx.KNN(query, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != k {
			t.Fatalf("got %d results", len(res))
		}
		if stats.Measured <= 0 || stats.Measured > count {
			t.Fatalf("measured = %d", stats.Measured)
		}
		// The top-1 neighbour should match the exact scan on this easy data.
		if res[0].Entry.ID != exact[0].Entry.ID {
			t.Fatalf("top-1 mismatch: %d vs %d", res[0].Entry.ID, exact[0].Entry.ID)
		}
	}
	if rt.Stats().Entries != count || db.Stats().Entries != count {
		t.Fatal("tree stats entry counts wrong")
	}
}

func TestPublicAPIRangeSearch(t *testing.T) {
	const n, m, count = 64, 12, 40
	meth := sapla.SAPLA()
	db, err := sapla.NewDBCH("SAPLA")
	if err != nil {
		t.Fatal(err)
	}
	scan := sapla.NewLinearScan()
	for id := 0; id < count; id++ {
		raw := randWalk(int64(id+50), n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		e := sapla.NewEntry(id, raw, rep)
		if err := db.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := scan.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	q := randWalk(777, n)
	qr, _ := meth.Reduce(q, m)
	query := sapla.NewQuery(q, qr)
	exact, _, err := scan.Range(query, 15)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := db.Range(query, 15)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int]bool{}
	for _, r := range exact {
		truth[r.Entry.ID] = true
	}
	for _, r := range got {
		if !truth[r.Entry.ID] {
			t.Fatalf("false positive %d", r.Entry.ID)
		}
	}
	var searchers []sapla.Index
	searchers = append(searchers, db, scan)
	_ = searchers
}

func TestPublicAPIDatasets(t *testing.T) {
	ds := sapla.Datasets()
	if len(ds) != 117 {
		t.Fatalf("%d datasets", len(ds))
	}
	d, err := sapla.DatasetByName("CBF")
	if err != nil {
		t.Fatal(err)
	}
	data, queries := d.Generate(sapla.DataConfig{Length: 64, Count: 10, Queries: 2})
	if len(data) != 10 || len(queries) != 2 {
		t.Fatal("bad generation")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	opt := sapla.DefaultExperiment()
	opt.Datasets = opt.Datasets[:2]
	opt.Cfg = sapla.DataConfig{Length: 64, Count: 15, Queries: 2}
	opt.Ms = []int{12}
	opt.Ks = []int{4}
	red, err := sapla.ReductionExperiment(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 8 {
		t.Fatalf("%d reduction rows", len(red))
	}
	idx, err := sapla.IndexExperiment(opt, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 17 {
		t.Fatalf("%d index rows", len(idx))
	}
}
