package sapla_test

import (
	"math"
	"testing"

	"sapla"
)

func TestFacadeMethodConstructors(t *testing.T) {
	ctors := map[string]func() sapla.Method{
		"APLA": sapla.APLA, "APCA": sapla.APCA, "PLA": sapla.PLA,
		"PAA": sapla.PAA, "PAALM": sapla.PAALM, "CHEBY": sapla.CHEBY, "SAX": sapla.SAX,
	}
	c := randWalk(1, 100)
	for name, ctor := range ctors {
		m := ctor()
		if m.Name() != name {
			t.Fatalf("%s constructor returned %s", name, m.Name())
		}
		if _, err := m.Reduce(c, 12); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestFacadeOnlineSAPLA(t *testing.T) {
	on, err := sapla.NewOnlineSAPLA(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range randWalk(2, 120) {
		on.Append(v)
	}
	rep, err := on.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments() != 4 {
		t.Fatalf("segments = %d", rep.Segments())
	}
	if _, err := sapla.NewOnlineSAPLA(1); err == nil {
		t.Fatal("M=1 accepted")
	}
}

func TestFacadeMiningTasks(t *testing.T) {
	var data []sapla.Series
	for i := 0; i < 12; i++ {
		data = append(data, randWalk(int64(i+60), 80))
	}
	motif, err := sapla.Motif(data)
	if err != nil || motif.I < 0 {
		t.Fatalf("motif: %v %+v", err, motif)
	}
	discord, err := sapla.Discord(data)
	if err != nil || discord.Index < 0 {
		t.Fatalf("discord: %v %+v", err, discord)
	}
	clusters, err := sapla.KMedoids(data, 3, 10)
	if err != nil || len(clusters.Medoids) != 3 {
		t.Fatalf("kmedoids: %v %+v", err, clusters)
	}
	d, err := sapla.DatasetByName("CBF")
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Generate(sapla.DataConfig{Length: 64, Count: 30, Queries: 5})
	clf, err := sapla.NewClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Train(train); err != nil {
		t.Fatal(err)
	}
	acc, rho, err := clf.Evaluate(test)
	if err != nil || acc < 0 || acc > 1 || rho <= 0 {
		t.Fatalf("classifier: %v acc=%v rho=%v", err, acc, rho)
	}
}

func TestFacadeSubseq(t *testing.T) {
	long := randWalk(3, 600)
	ix, err := sapla.NewSubseqIndex(long, 48)
	if err != nil {
		t.Fatal(err)
	}
	query := long[100:148].Clone()
	ms, _, err := ix.Match(query, 1)
	if err != nil || len(ms) != 1 {
		t.Fatalf("match: %v %v", err, ms)
	}
	if ms[0].Offset != 100 || ms[0].Dist > 1e-9 {
		t.Fatalf("self-match = %+v", ms[0])
	}
}

// The subsequence options are reachable through the facade: a stride-2,
// z-normalised index holds every other window and finds a scaled, shifted
// copy of an indexed window at z-normalised distance ≈ 0.
func TestFacadeSubseqOptions(t *testing.T) {
	long := randWalk(5, 600)
	ix, err := sapla.NewSubseqIndex(long, 48, sapla.SubseqWithStride(2), sapla.SubseqWithZNormalize())
	if err != nil {
		t.Fatal(err)
	}
	if want := (600-48)/2 + 1; ix.Windows() != want {
		t.Fatalf("windows = %d, want %d", ix.Windows(), want)
	}
	query := long[200:248].Clone()
	for i := range query {
		query[i] = 3*query[i] + 40
	}
	ms, _, err := ix.Match(query, 1)
	if err != nil || len(ms) != 1 {
		t.Fatalf("match: %v %v", err, ms)
	}
	if ms[0].Offset != 200 || ms[0].Dist > 1e-6 {
		t.Fatalf("z-normalised self-match = %+v", ms[0])
	}
}

func TestFacadeDistanceErrors(t *testing.T) {
	c := randWalk(4, 64)
	rep, err := sapla.PAA().Reduce(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Dist_PAR needs adaptive representations.
	if _, err := sapla.DistPAR(rep, rep); err == nil {
		t.Fatal("DistPAR accepted PAA representations")
	}
	lin, _ := sapla.SAPLA().Reduce(c, 12)
	if _, err := sapla.DistLB(c[:10], lin); err == nil {
		t.Fatal("DistLB accepted mismatched lengths")
	}
	if _, err := sapla.DistAE(c[:10], lin); err == nil {
		t.Fatal("DistAE accepted mismatched lengths")
	}
	d, err := sapla.DistAE(c, lin)
	if err != nil || math.IsNaN(d) {
		t.Fatalf("DistAE: %v %v", err, d)
	}
}

func TestFacadeBulkLoad(t *testing.T) {
	meth := sapla.SAPLA()
	tree, err := sapla.NewRTree("SAPLA", 64, 12)
	if err != nil {
		t.Fatal(err)
	}
	var entries []*sapla.Entry
	for i := 0; i < 40; i++ {
		raw := randWalk(int64(i+200), 64)
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, sapla.NewEntry(i, raw, rep))
	}
	if err := tree.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 40 {
		t.Fatalf("Len = %d", tree.Len())
	}
}

func TestFacadePerformanceAPIs(t *testing.T) {
	// Reusable reducer matches the pooled convenience path exactly.
	c := randWalk(90, 300)
	r := sapla.NewReducer()
	var dst sapla.Linear
	dst, err := r.ReduceInto(dst, c, 12)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sapla.SAPLA().Reduce(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	wl := want.(sapla.Linear)
	if len(dst.Segs) != len(wl.Segs) {
		t.Fatalf("segment count %d, want %d", len(dst.Segs), len(wl.Segs))
	}
	for i := range dst.Segs {
		if dst.Segs[i] != wl.Segs[i] {
			t.Fatalf("segment %d diverges", i)
		}
	}

	// BatchKNN agrees with serial KNN through a SearchWorkspace.
	tree, err := sapla.NewDBCH("SAPLA")
	if err != nil {
		t.Fatal(err)
	}
	meth := sapla.SAPLA()
	for id := 0; id < 40; id++ {
		raw := randWalk(int64(200+id), 120)
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.Insert(sapla.NewEntry(id, raw, rep)); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([]sapla.Query, 5)
	for i := range queries {
		raw := randWalk(int64(900+i), 120)
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = sapla.NewQuery(raw, rep)
	}
	batch, _, err := sapla.BatchKNN(tree, queries, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ws := sapla.NewSearchWorkspace()
	var _ sapla.Index = tree
	for qi, q := range queries {
		res, _, err := tree.KNNWith(ws, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(batch[qi]) {
			t.Fatalf("query %d: %d results vs batch %d", qi, len(res), len(batch[qi]))
		}
		for i := range res {
			if res[i] != batch[qi][i] {
				t.Fatalf("query %d result %d diverges", qi, i)
			}
		}
	}
}
