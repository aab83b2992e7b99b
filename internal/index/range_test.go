package index

import (
	"math"
	"math/rand"
	"testing"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

func TestRangeSearchAllIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const n, m, count = 96, 8, 100
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, count, n, m)

	rt, _ := NewRTree("PAA", n, m, 2, 5)
	db, _ := NewDBCH("PAA", 2, 5)
	scan := NewLinearScan()
	for _, e := range entries {
		for _, idx := range []Index{rt, db, scan} {
			if err := idx.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := randWalk(rng, n)
	qr, _ := meth.Reduce(q, m)
	query := dist.NewQuery(q, qr)

	// Ground truth radius: the 10th exact neighbour's distance.
	dists := make([]float64, count)
	for i, e := range entries {
		dists[i] = math.Sqrt(ts.EuclideanSq(q, e.Raw))
	}
	sorted := append([]float64(nil), dists...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	radius := sorted[9]

	want := map[int]bool{}
	for i, d := range dists {
		if d <= radius {
			want[entries[i].ID] = true
		}
	}

	exact, stats, err := scan.Range(query, radius)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Measured != count || len(exact) != len(want) {
		t.Fatalf("linear scan range: %d results, want %d", len(exact), len(want))
	}

	// PAA's filter and the R-tree's weighted node bound are guaranteed
	// lower bounds, so the R-tree range query must be exact.
	res, rstats, err := rt.Range(query, radius)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(want) {
		t.Fatalf("R-tree range returned %d results, want %d", len(res), len(want))
	}
	if rstats.Measured > count {
		t.Fatalf("measured %d > %d", rstats.Measured, count)
	}
	for i, r := range res {
		if !want[r.Entry.ID] {
			t.Fatalf("false positive id %d", r.Entry.ID)
		}
		if r.Dist > radius {
			t.Fatalf("result outside radius: %v > %v", r.Dist, radius)
		}
		if i > 0 && r.Dist < res[i-1].Dist {
			t.Fatal("range results not sorted")
		}
	}

	// The DBCH-tree's Section 5.3 node rule is deliberately not a strict
	// lower bound (the paper's accuracy < 1): results must be a clean
	// subset of the truth, with most of it recalled.
	dres, _, err := db.Range(query, radius)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range dres {
		if !want[r.Entry.ID] || r.Dist > radius {
			t.Fatalf("DBCH false positive id %d dist %v", r.Entry.ID, r.Dist)
		}
	}
	if len(dres) < len(want)/2 {
		t.Fatalf("DBCH recall too low: %d/%d", len(dres), len(want))
	}
}

// With SafeBound the DBCH node distance is a true lower bound of the filter
// distance (cover radii + metric triangle inequality), so with a
// guaranteed-LB method the range query becomes exact.
func TestRangeSearchDBCHSafeBoundExact(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const n, m, count = 96, 8, 120
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, count, n, m)
	db, _ := NewDBCH("PAA", 2, 5)
	db.SafeBound = true
	scan := NewLinearScan()
	for _, e := range entries {
		if err := db.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := scan.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 5; trial++ {
		q := randWalk(rng, n)
		qr, _ := meth.Reduce(q, m)
		query := dist.NewQuery(q, qr)
		for _, radius := range []float64{5, 10, 20} {
			want, _, err := scan.Range(query, radius)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := db.Range(query, radius)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("radius %v: %d results, want %d", radius, len(got), len(want))
			}
		}
	}
}

func TestRangeSearchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	meth := buildMethod(t, "SAPLA")
	tree, _ := NewDBCH("SAPLA", 2, 5)
	q := randWalk(rng, 64)
	qr, _ := meth.Reduce(q, 12)
	query := dist.NewQuery(q, qr)

	// Empty index.
	res, _, err := tree.Range(query, 10)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty range: %v, %d", err, len(res))
	}
	for _, e := range makeEntries(t, meth, rng, 30, 64, 12) {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Negative radius.
	res, _, err = tree.Range(query, -1)
	if err != nil || len(res) != 0 {
		t.Fatalf("negative radius: %v, %d", err, len(res))
	}
	// Zero radius on a non-member query.
	res, _, err = tree.Range(query, 0)
	if err != nil || len(res) != 0 {
		t.Fatalf("zero radius: %v, %d", err, len(res))
	}
	// Huge radius returns everything.
	res, _, err = tree.Range(query, 1e12)
	if err != nil || len(res) != 30 {
		t.Fatalf("huge radius: %v, %d", err, len(res))
	}

	// The radius corners on every tier that answers ranges: the flat tier,
	// bare and behind four shards, the DBCH tree under a lower-bounding method,
	// and the linear scan they are all held to.
	paa := buildMethod(t, "PAA")
	db, _ := NewDBCH("PAA", 2, 5)
	db.SafeBound = true
	scan := NewLinearScan()
	tiers := []struct {
		name string
		idx  Index
	}{{"flat", NewFlat()}, {"sharded4", newShardedFlat(t, 4)}, {"dbch", db}, {"scan", scan}}
	entries := makeEntries(t, paa, rng, 40, 64, 8)
	for _, e := range entries {
		for _, tier := range tiers {
			if err := tier.idx.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	qr, _ = paa.Reduce(q, 8)
	self := dist.NewQuery(entries[7].Raw, entries[7].Rep)
	for _, tier := range tiers {
		checkRadiusCorners(t, tier.name, tier.idx, scan, dist.NewQuery(q, qr), self)
	}
}

// checkRadiusCorners holds idx's range answers to scan's, which holds the same
// entries, at the radius corners: NaN and negative radii have no answer (nil);
// −0 is a radius of zero, which holds the entry self, a query equal to a
// stored series, is; +Inf holds every entry; and a radius equal to a stored
// distance holds that entry — the boundary is inclusive.
func checkRadiusCorners(t *testing.T, label string, idx Index, scan *LinearScan, q, self dist.Query) {
	t.Helper()
	near, _, err := scan.KNN(q, 3)
	if err != nil || len(near) != 3 {
		t.Fatalf("%s: reference k-NN: %d results, %v", label, len(near), err)
	}
	for _, c := range []struct {
		name   string
		q      dist.Query
		radius float64
		want   int
	}{
		{"NaN", q, math.NaN(), 0},
		{"-1", q, -1, 0},
		{"-0", self, math.Copysign(0, -1), 1},
		{"+Inf", q, math.Inf(1), scan.Len()},
		{"tie", q, near[2].Dist, 3},
	} {
		name := label + " radius " + c.name
		want, _, _ := scan.Range(c.q, c.radius)
		if len(want) != c.want {
			t.Fatalf("%s: the scan answers %d, want %d", name, len(want), c.want)
		}
		got, _, err := idx.Range(c.q, c.radius)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.want == 0 && got != nil {
			t.Fatalf("%s: answered %v, want nil", name, got)
		}
		identicalResults(t, name, got, want)
	}
}

func TestRangeRTreePrunesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	meth := buildMethod(t, "PAA")
	const count = 200
	entries := makeEntries(t, meth, rng, count, 64, 8)
	tree, _ := NewRTree("PAA", 64, 8, 2, 5)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	q := randWalk(rng, 64)
	qr, _ := meth.Reduce(q, 8)
	// A tight radius should prune a meaningful share of the tree.
	_, stats, err := tree.Range(dist.NewQuery(q, qr), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Measured == count {
		t.Fatal("tight range query measured every series — no pruning")
	}
}
