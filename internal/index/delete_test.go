package index

import (
	"math/rand"
	"testing"

	"sapla/internal/dist"
)

func TestRTreeDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	meth := buildMethod(t, "PAA")
	const n, m, count = 64, 8, 120
	entries := makeEntries(t, meth, rng, count, n, m)
	tree, _ := NewRTree("PAA", n, m, 2, 5)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Delete half the entries.
	removed := map[int]bool{}
	for id := 0; id < count; id += 2 {
		if !tree.Delete(id) {
			t.Fatalf("entry %d not found", id)
		}
		removed[id] = true
	}
	if tree.Len() != count/2 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if tree.Delete(0) {
		t.Fatal("double delete succeeded")
	}
	if tree.Delete(99999) {
		t.Fatal("nonexistent delete succeeded")
	}
	// k-NN over the survivors matches a fresh linear scan.
	var remaining []*Entry
	for _, e := range entries {
		if !removed[e.ID] {
			remaining = append(remaining, e)
		}
	}
	for trial := 0; trial < 5; trial++ {
		q := randWalk(rng, n)
		qr, _ := meth.Reduce(q, m)
		res, _, err := tree.KNN(dist.NewQuery(q, qr), 5)
		if err != nil {
			t.Fatal(err)
		}
		want := trueKNN(remaining, q, 5)
		if ov := overlap(res, want); ov != 5 {
			t.Fatalf("trial %d: %d/5 after deletions", trial, ov)
		}
		for _, r := range res {
			if removed[r.Entry.ID] {
				t.Fatalf("deleted entry %d returned", r.Entry.ID)
			}
		}
	}
	// Rect containment still holds everywhere.
	var walk func(nd int32)
	walk = func(nd int32) {
		if tree.ar.isLeaf[nd] {
			for _, eid := range tree.ar.slotsOf(nd) {
				if !tree.ar.covers[nd].contains(tree.ents[eid].Vec()) {
					t.Fatal("leaf rect broken after delete")
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

func TestRTreeDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	meth := buildMethod(t, "PAA")
	entries := makeEntries(t, meth, rng, 30, 64, 8)
	tree, _ := NewRTree("PAA", 64, 8, 2, 5)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		if !tree.Delete(e.ID) {
			t.Fatalf("entry %d missing", e.ID)
		}
	}
	if tree.Len() != 0 || tree.root != nilNode {
		t.Fatalf("tree not empty: len=%d", tree.Len())
	}
	// Reusable after emptying.
	if err := tree.Insert(entries[0]); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1 {
		t.Fatal("reinsert after emptying failed")
	}
	// Deleting from an empty tree is a no-op.
	empty, _ := NewRTree("PAA", 64, 8, 2, 5)
	if empty.Delete(1) {
		t.Fatal("delete from empty tree succeeded")
	}
}

func TestDBCHDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	meth := buildMethod(t, "SAPLA")
	const n, m, count = 64, 12, 100
	entries := makeEntries(t, meth, rng, count, n, m)
	tree, _ := NewDBCH("SAPLA", 2, 5)
	for _, e := range entries {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	removed := map[int]bool{}
	for id := 0; id < count; id += 3 {
		if !tree.Delete(id) {
			t.Fatalf("entry %d not found", id)
		}
		removed[id] = true
	}
	wantLen := count - (count+2)/3
	if tree.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", tree.Len(), wantLen)
	}
	if tree.Delete(0) || tree.Delete(424242) {
		t.Fatal("bogus delete succeeded")
	}
	// Hull invariant still holds at leaves.
	var walk func(nd int32) int
	walk = func(nd int32) int {
		if tree.ar.isLeaf[nd] {
			ss := tree.ar.slotsOf(nd)
			for _, eid := range ss {
				if removed[tree.ents[eid].ID] {
					t.Fatalf("deleted entry %d still present", tree.ents[eid].ID)
				}
				if d := tree.dEnt(eid, tree.ar.covers[nd].hullU); d > tree.ar.covers[nd].volume+1e-6 {
					t.Fatal("hull invariant broken after delete")
				}
			}
			return len(ss)
		}
		var total int
		for _, c := range tree.ar.slotsOf(nd) {
			total += walk(c)
		}
		return total
	}
	if total := walk(tree.root); total != wantLen {
		t.Fatalf("tree holds %d entries, want %d", total, wantLen)
	}
	// Queries still work.
	q := randWalk(rng, n)
	qr, _ := meth.Reduce(q, m)
	res, _, err := tree.KNN(dist.NewQuery(q, qr), 5)
	if err != nil || len(res) != 5 {
		t.Fatalf("KNN after delete: %v, %d results", err, len(res))
	}
	// Empty the tree completely.
	for id := 0; id < count; id++ {
		tree.Delete(id)
	}
	if tree.Len() != 0 || tree.root != nilNode {
		t.Fatal("DBCH not empty after deleting everything")
	}
	if live := tree.ar.live(); live != 0 {
		t.Fatalf("arena still holds %d live nodes after emptying", live)
	}
	if tree.Delete(1) {
		t.Fatal("delete from empty DBCH succeeded")
	}
}
