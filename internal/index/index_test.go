package index

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/reduce"
	"sapla/internal/ts"
)

func randWalk(rng *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

// buildMethod returns the named reducer, including SAPLA.
func buildMethod(t *testing.T, name string) reduce.Method {
	t.Helper()
	if name == "SAPLA" {
		return core.New()
	}
	for _, m := range reduce.Baselines() {
		if m.Name() == name {
			return m
		}
	}
	t.Fatalf("unknown method %s", name)
	return nil
}

// makeEntries reduces count random-walk series of length n under a method.
func makeEntries(t *testing.T, meth reduce.Method, rng *rand.Rand, count, n, m int) []*Entry {
	t.Helper()
	out := make([]*Entry, count)
	for i := range out {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = NewEntry(i, raw, rep)
	}
	return out
}

func trueKNN(entries []*Entry, q ts.Series, k int) []int {
	type pair struct {
		id int
		d  float64
	}
	ps := make([]pair, len(entries))
	for i, e := range entries {
		ps[i] = pair{e.ID, ts.EuclideanSq(q, e.Raw)}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].d < ps[j].d })
	ids := make([]int, k)
	for i := 0; i < k; i++ {
		ids[i] = ps[i].id
	}
	return ids
}

func overlap(a []Result, ids []int) int {
	set := map[int]bool{}
	for _, id := range ids {
		set[id] = true
	}
	var n int
	for _, r := range a {
		if set[r.Entry.ID] {
			n++
		}
	}
	return n
}

var allMethods = []string{"SAPLA", "APLA", "APCA", "PLA", "PAA", "PAALM", "CHEBY", "SAX"}

func TestRTreeInsertAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, 100, 64, 12)
	tree, err := NewRTree("PAA", 64, 12, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if tree.Len() != 100 {
		t.Fatalf("Len = %d", tree.Len())
	}
	s := tree.Stats()
	if s.Entries != 100 || s.LeafNodes == 0 || s.Height < 2 {
		t.Fatalf("stats = %+v", s)
	}
	// Every leaf respects the fill bounds (root excepted).
	var walk func(nd int32, isRoot bool)
	walk = func(nd int32, isRoot bool) {
		fill := int(tree.ar.count[nd])
		if tree.ar.isLeaf[nd] {
			if !isRoot && (fill < 2 || fill > 5) {
				t.Fatalf("leaf fill %d out of [2,5]", fill)
			}
			return
		}
		if !isRoot && (fill < 2 || fill > 5) {
			t.Fatalf("internal fill %d out of [2,5]", fill)
		}
		for _, c := range tree.ar.slotsOf(nd) {
			walk(c, false)
		}
	}
	walk(tree.root, true)
}

func TestRTreeRectsCoverEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	meth := buildMethod(t, "PLA")
	entries := makeEntries(t, meth, rng, 80, 48, 8)
	tree, _ := NewRTree("PLA", 48, 8, 2, 5)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	var walk func(nd int32) Rect
	walk = func(nd int32) Rect {
		rect := tree.ar.covers[nd]
		if tree.ar.isLeaf[nd] {
			for _, eid := range tree.ar.slotsOf(nd) {
				if !rect.contains(tree.ents[eid].Vec()) {
					t.Fatal("leaf rect does not contain entry")
				}
			}
			return rect
		}
		for _, c := range tree.ar.slotsOf(nd) {
			cr := walk(c)
			for d := range cr.Lo {
				if cr.Lo[d] < rect.Lo[d]-1e-9 || cr.Hi[d] > rect.Hi[d]+1e-9 {
					t.Fatal("child rect escapes parent rect")
				}
			}
		}
		return rect
	}
	walk(tree.root)
}

func TestRTreeDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	meth := buildMethod(t, "PAA")
	tree, _ := NewRTree("PAA", 64, 12, 2, 5)
	e1 := makeEntries(t, meth, rng, 1, 64, 12)[0]
	if err := tree.Insert(e1); err != nil {
		t.Fatal(err)
	}
	bad, _ := meth.Reduce(randWalk(rng, 64), 6)
	if err := tree.Insert(NewEntry(99, randWalk(rng, 64), bad)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestLinearScanExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, 50, 64, 8)
	scan := NewLinearScan()
	for _, e := range entries {
		if err := scan.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	q := randWalk(rng, 64)
	qr, _ := meth.Reduce(q, 8)
	res, stats, err := scan.KNN(dist.NewQuery(q, qr), 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Measured != 50 {
		t.Fatalf("linear scan measured %d", stats.Measured)
	}
	want := trueKNN(entries, q, 5)
	if overlap(res, want) != 5 {
		t.Fatal("linear scan is not exact")
	}
	// Results ascending.
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

// Both trees, every method: k-NN must return k results with high accuracy,
// and pruning must actually prune for the stronger methods.
func TestKNNAllMethodsBothTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, m, count, k = 64, 12, 60, 5
	for _, name := range allMethods {
		meth := buildMethod(t, name)
		entries := makeEntries(t, meth, rng, count, n, m)
		rt, err := NewRTree(name, n, m, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		db, err := NewDBCH(name, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := rt.Insert(e); err != nil {
				t.Fatalf("%s rtree: %v", name, err)
			}
			if err := db.Insert(e); err != nil {
				t.Fatalf("%s dbch: %v", name, err)
			}
		}
		q := randWalk(rng, n)
		qr, err := meth.Reduce(q, m)
		if err != nil {
			t.Fatal(err)
		}
		query := dist.NewQuery(q, qr)
		want := trueKNN(entries, q, k)
		for _, idx := range []Index{rt, db} {
			res, stats, err := idx.KNN(query, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res) != k {
				t.Fatalf("%s: got %d results", name, len(res))
			}
			if stats.Measured == 0 || stats.Measured > count {
				t.Fatalf("%s: measured %d", name, stats.Measured)
			}
			// With only 60 random walks, any sane filter finds most of the
			// true neighbours.
			if ov := overlap(res, want); ov < k-2 {
				t.Fatalf("%s: only %d/%d true neighbours", name, ov, k)
			}
		}
	}
}

// Exactness guarantee: with the guaranteed-lower-bound methods (PAA, PLA) and
// the safe R-tree node bounds, k-NN through the R-tree is exact.
func TestRTreeExactForLowerBoundingMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n, m, count, k = 96, 8, 120, 8
	for _, name := range []string{"PAA", "PLA"} {
		meth := buildMethod(t, name)
		entries := makeEntries(t, meth, rng, count, n, m)
		tree, _ := NewRTree(name, n, m, 2, 5)
		for _, e := range entries {
			if err := tree.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 10; trial++ {
			q := randWalk(rng, n)
			qr, _ := meth.Reduce(q, m)
			res, stats, err := tree.KNN(dist.NewQuery(q, qr), k)
			if err != nil {
				t.Fatal(err)
			}
			want := trueKNN(entries, q, k)
			if ov := overlap(res, want); ov != k {
				t.Fatalf("%s trial %d: %d/%d exact (measured %d)", name, trial, ov, k, stats.Measured)
			}
		}
	}
}

func TestDBCHStatsAndFill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 100, 64, 12)
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	s := tree.Stats()
	if s.Entries != 100 || s.LeafNodes == 0 || s.Height < 2 {
		t.Fatalf("stats = %+v", s)
	}
	var walk func(nd int32, isRoot bool) int
	walk = func(nd int32, isRoot bool) int {
		fill := int(tree.ar.count[nd])
		if tree.ar.isLeaf[nd] {
			if !isRoot && (fill < 2 || fill > 5) {
				t.Fatalf("leaf fill %d", fill)
			}
			return fill
		}
		if !isRoot && (fill < 2 || fill > 5) {
			t.Fatalf("internal fill %d", fill)
		}
		var total int
		for _, c := range tree.ar.slotsOf(nd) {
			total += walk(c, false)
		}
		return total
	}
	if total := walk(tree.root, true); total != 100 {
		t.Fatalf("tree holds %d entries", total)
	}
}

// Hull invariant: every entry in a DBCH leaf is within the hull volume of
// both hull representatives.
func TestDBCHHullInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 60, 64, 12)
	tree, _ := NewDBCH("SAPLA", 2, 5)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	checkHullInvariant(t, tree)
}

// checkHullInvariant asserts that every leaf entry lies within its leaf's
// hull volume of both hull representatives.
func checkHullInvariant(t *testing.T, tree *DBCH) {
	t.Helper()
	var walk func(nd int32)
	walk = func(nd int32) {
		if tree.ar.isLeaf[nd] {
			h := tree.ar.covers[nd]
			for _, eid := range tree.ar.slotsOf(nd) {
				du := tree.dEnt(eid, h.hullU)
				dl := tree.dEnt(eid, h.hullL)
				if du > h.volume+1e-6 || dl > h.volume+1e-6 {
					t.Fatalf("entry escapes hull: du=%v dl=%v vol=%v", du, dl, h.volume)
				}
			}
			return
		}
		for _, c := range tree.ar.slotsOf(nd) {
			walk(c)
		}
	}
	walk(tree.root)
}

// The paper's space-efficiency claim (Figures 15–16): for adaptive methods
// the DBCH-tree packs leaves better than the R-tree over APCA-style MBRs.
func TestDBCHPacksBetterThanRTreeForAdaptive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 100, 64, 12)
	rt, _ := NewRTree("SAPLA", 64, 12, 2, 5)
	db, _ := NewDBCH("SAPLA", 2, 5)
	for _, e := range entries {
		if err := rt.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	rs, ds := rt.Stats(), db.Stats()
	if ds.TotalNodes() > rs.TotalNodes() {
		t.Fatalf("DBCH total nodes %d > R-tree %d", ds.TotalNodes(), rs.TotalNodes())
	}
}

func TestDBCHSafeBoundNotWorseAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	meth := buildMethod(t, "SAPLA")
	const n, m, count, k = 64, 12, 80, 5
	entries := makeEntries(t, meth, rng, count, n, m)
	paperRule, _ := NewDBCH("SAPLA", 2, 5)
	safe, _ := NewDBCH("SAPLA", 2, 5)
	safe.SafeBound = true
	for _, e := range entries {
		if err := paperRule.Insert(e); err != nil {
			t.Fatal(err)
		}
		if err := safe.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	var accPaper, accSafe int
	for trial := 0; trial < 10; trial++ {
		q := randWalk(rng, n)
		qr, _ := meth.Reduce(q, m)
		want := trueKNN(entries, q, k)
		rp, _, _ := paperRule.KNN(dist.NewQuery(q, qr), k)
		rs, _, _ := safe.KNN(dist.NewQuery(q, qr), k)
		accPaper += overlap(rp, want)
		accSafe += overlap(rs, want)
	}
	if accSafe < accPaper {
		t.Fatalf("safe bound lowered accuracy: %d < %d", accSafe, accPaper)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	meth := buildMethod(t, "PAA")
	tree, _ := NewRTree("PAA", 32, 8, 2, 5)
	q := randWalk(rng, 32)
	qr, _ := meth.Reduce(q, 8)
	// Empty tree.
	res, _, err := tree.KNN(dist.NewQuery(q, qr), 3)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty tree: %v, %d results", err, len(res))
	}
	// k = 0.
	e := makeEntries(t, meth, rng, 1, 32, 8)[0]
	if err := tree.Insert(e); err != nil {
		t.Fatal(err)
	}
	res, _, err = tree.KNN(dist.NewQuery(q, qr), 0)
	if err != nil || len(res) != 0 {
		t.Fatalf("k=0: %v, %d results", err, len(res))
	}
	// k larger than the collection.
	res, _, err = tree.KNN(dist.NewQuery(q, qr), 10)
	if err != nil || len(res) != 1 {
		t.Fatalf("k>size: %v, %d results", err, len(res))
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := NewRTree("NOPE", 64, 12, 2, 5); err == nil {
		t.Fatal("unknown method accepted by R-tree")
	}
	if _, err := NewDBCH("NOPE", 2, 5); err == nil {
		t.Fatal("unknown method accepted by DBCH")
	}
}

func TestBadFillParametersFallBack(t *testing.T) {
	tree, err := NewRTree("PAA", 64, 12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tree.minFill != 2 || tree.maxFill != 5 {
		t.Fatalf("fill fallback = %d,%d", tree.minFill, tree.maxFill)
	}
}

// NewDBCH rejects fill parameters that cannot support a balanced split
// instead of silently rewriting them.
func TestDBCHBadFillParametersRejected(t *testing.T) {
	for _, tc := range [][2]int{{0, 5}, {2, 2}, {3, 4}, {-1, -1}, {1, 0}} {
		if _, err := NewDBCH("SAPLA", tc[0], tc[1]); err == nil {
			t.Fatalf("minFill=%d maxFill=%d accepted", tc[0], tc[1])
		}
	}
	for _, tc := range [][2]int{{1, 1}, {2, 3}, {2, 5}, {4, 7}} {
		if _, err := NewDBCH("SAPLA", tc[0], tc[1]); err != nil {
			t.Fatalf("minFill=%d maxFill=%d rejected: %v", tc[0], tc[1], err)
		}
	}
}

func TestPlaLambdaMin(t *testing.T) {
	// λmin must be non-negative and the quadratic form must dominate
	// λmin·(da²+db²) on a sample grid.
	for _, l := range []int{2, 3, 5, 10, 50} {
		lam := plaLambdaMin(l)
		if lam < 0 {
			t.Fatalf("negative λmin for l=%d", l)
		}
		fl := float64(l)
		wa := fl * (fl - 1) * (2*fl - 1) / 6
		wb := fl
		c := fl * (fl - 1) / 2
		for _, da := range []float64{-1, -0.1, 0, 0.3, 1} {
			for _, db := range []float64{-2, 0, 0.5, 2} {
				q := wa*da*da + 2*c*da*db + wb*db*db
				if q < lam*(da*da+db*db)-1e-9 {
					t.Fatalf("l=%d: form %v < λmin bound %v", l, q, lam*(da*da+db*db))
				}
			}
		}
	}
}

// TestAppendCoeffs: the query vector a tree search writes into its workspace
// is Coeffs' vector bit for bit, for every method's representation, appended
// after what the buffer held; a nil representation has none.
func TestAppendCoeffs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, name := range allMethods {
		rep, err := buildMethod(t, name).Reduce(randWalk(rng, 64), 12)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64{-1}, rep.Coeffs()...)
		got := appendCoeffs([]float64{-1}, rep)
		if len(got) != len(want) {
			t.Fatalf("%s: %d coefficients, want %d", name, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: coefficient %d is %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	if got := appendCoeffs(nil, nil); len(got) != 0 {
		t.Fatalf("nil representation: %v", got)
	}
}
