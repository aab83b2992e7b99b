package index

import (
	"math/rand"
	"testing"

	"sapla/internal/dist"
)

func TestBulkLoadBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	meth := buildMethod(t, "PAA")
	const n, m, count = 96, 8, 137
	entries := makeEntries(t, meth, rng, count, n, m)
	tree, _ := NewRTree("PAA", n, m, 2, 5)
	if err := tree.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != count {
		t.Fatalf("Len = %d", tree.Len())
	}
	s := tree.Stats()
	if s.Entries != count || s.LeafNodes == 0 || s.Height < 2 {
		t.Fatalf("stats %+v", s)
	}
	// Rects must cover their contents.
	var walk func(nd int32) int
	walk = func(nd int32) int {
		if tree.ar.isLeaf[nd] {
			for _, eid := range tree.ar.slotsOf(nd) {
				if !tree.ar.covers[nd].contains(tree.ents[eid].Vec()) {
					t.Fatal("leaf rect does not contain entry")
				}
			}
			return int(tree.ar.count[nd])
		}
		var total int
		for _, c := range tree.ar.slotsOf(nd) {
			total += walk(c)
		}
		return total
	}
	if walk(tree.root) != count {
		t.Fatal("bulk load lost entries")
	}
}

func TestBulkLoadExactKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	meth := buildMethod(t, "PAA")
	const n, m, count, k = 96, 8, 150, 8
	entries := makeEntries(t, meth, rng, count, n, m)
	tree, _ := NewRTree("PAA", n, m, 2, 5)
	if err := tree.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		q := randWalk(rng, n)
		qr, _ := meth.Reduce(q, m)
		res, _, err := tree.KNN(dist.NewQuery(q, qr), k)
		if err != nil {
			t.Fatal(err)
		}
		want := trueKNN(entries, q, k)
		if ov := overlap(res, want); ov != k {
			t.Fatalf("trial %d: %d/%d exact", trial, ov, k)
		}
	}
}

func TestBulkLoadPacksTighter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 200, 64, 12)
	seq, _ := NewRTree("SAPLA", 64, 12, 2, 5)
	for _, e := range entries {
		if err := seq.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	bulk, _ := NewRTree("SAPLA", 64, 12, 2, 5)
	if err := bulk.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if bulk.Stats().TotalNodes() > seq.Stats().TotalNodes() {
		t.Fatalf("bulk %d nodes > sequential %d", bulk.Stats().TotalNodes(), seq.Stats().TotalNodes())
	}
}

func TestBulkLoadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, 10, 64, 8)
	tree, _ := NewRTree("PAA", 64, 8, 2, 5)
	if err := tree.Insert(entries[0]); err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(entries); err != ErrNotEmpty {
		t.Fatalf("non-empty bulk load: %v", err)
	}
	empty, _ := NewRTree("PAA", 64, 8, 2, 5)
	if err := empty.BulkLoad(nil); err != nil {
		t.Fatalf("empty bulk load: %v", err)
	}
	// Dimension mismatch inside the batch.
	small, err := meth.Reduce(randWalk(rng, 64), 4)
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(entries[:3:3], NewEntry(99, randWalk(rng, 64), small))
	fresh, _ := NewRTree("PAA", 64, 8, 2, 5)
	if err := fresh.BulkLoad(mixed); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestDBCHBulkLoadMatchesKNN: a bulk-loaded DBCH-tree must answer k-NN
// exactly like an incrementally built one (both are exact via GEMINI; only
// the tree shape may differ), and its hulls must honour the cover invariant
// the SafeBound pruning rule relies on.
func TestDBCHBulkLoadMatchesKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	meth := buildMethod(t, "SAPLA")
	const n, m, count, k = 96, 12, 180, 8
	entries := makeEntries(t, meth, rng, count, n, m)

	bulk, _ := NewDBCH("SAPLA", 2, 5)
	bulk.SafeBound = true
	if err := bulk.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != count {
		t.Fatalf("Len = %d", bulk.Len())
	}
	s := bulk.Stats()
	if s.Entries != count || s.LeafNodes == 0 || s.Height < 2 {
		t.Fatalf("stats %+v", s)
	}

	// Every entry must lie within its leaf's cover radii of both hull ends,
	// transitively bounded at internal nodes — otherwise SafeBound could
	// dismiss true neighbours.
	var walk func(nd int32) int
	walk = func(nd int32) int {
		if bulk.ar.isLeaf[nd] {
			ss, h := bulk.ar.slotsOf(nd), bulk.ar.covers[nd]
			for _, eid := range ss {
				if bulk.dEnt(eid, h.hullU) > h.coverU+1e-9 ||
					bulk.dEnt(eid, h.hullL) > h.coverL+1e-9 {
					t.Fatal("leaf cover radius does not contain entry")
				}
			}
			return len(ss)
		}
		var total int
		for _, c := range bulk.ar.slotsOf(nd) {
			total += walk(c)
		}
		return total
	}
	if walk(bulk.root) != count {
		t.Fatal("bulk load lost entries")
	}

	for trial := 0; trial < 5; trial++ {
		q := randWalk(rng, n)
		qr, _ := meth.Reduce(q, m)
		res, _, err := bulk.KNN(dist.NewQuery(q, qr), k)
		if err != nil {
			t.Fatal(err)
		}
		want := trueKNN(entries, q, k)
		if ov := overlap(res, want); ov != k {
			t.Fatalf("trial %d: %d/%d exact", trial, ov, k)
		}
	}
}

func TestDBCHBulkLoadErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 10, 64, 8)
	tree, _ := NewDBCH("SAPLA", 2, 5)
	if err := tree.Insert(entries[0]); err != nil {
		t.Fatal(err)
	}
	if err := tree.BulkLoad(entries); err != ErrNotEmpty {
		t.Fatalf("non-empty bulk load: %v", err)
	}
	empty, _ := NewDBCH("SAPLA", 2, 5)
	if err := empty.BulkLoad(nil); err != nil {
		t.Fatalf("empty bulk load: %v", err)
	}
	single, _ := NewDBCH("SAPLA", 2, 5)
	if err := single.BulkLoad(entries[:1]); err != nil {
		t.Fatal(err)
	}
	if single.Len() != 1 || single.Stats().Height != 1 {
		t.Fatalf("single entry tree: %+v", single.Stats())
	}
}

func TestBulkLoadSingleEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, 1, 64, 8)
	tree, _ := NewRTree("PAA", 64, 8, 2, 5)
	if err := tree.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1 || tree.Stats().Height != 1 {
		t.Fatalf("single entry tree: %+v", tree.Stats())
	}
}
