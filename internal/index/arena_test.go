package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sapla/internal/dist"
)

// liveEnts counts the non-nil slots of the entry arena.
func liveEnts(ents []*Entry) int {
	n := 0
	for _, e := range ents {
		if e != nil {
			n++
		}
	}
	return n
}

// live returns the number of in-use nodes.
func (a *nodeArena[C]) live() int { return len(a.isLeaf) - len(a.free) }

// contains reports whether v lies inside r.
func (r Rect) contains(v []float64) bool {
	for d := range v {
		if v[d] < r.Lo[d] || v[d] > r.Hi[d] {
			return false
		}
	}
	return true
}

// checkArenaAccounting asserts the free-list invariants: every arena slot is
// either live or on the free list, and the entry arena agrees with Len().
func checkArenaAccounting[C any](t *testing.T, tree *tree[C]) {
	t.Helper()
	if got := tree.ar.live() + len(tree.ar.free); got != tree.ar.len() {
		t.Fatalf("node arena leak: live %d + free %d != len %d",
			tree.ar.live(), len(tree.ar.free), tree.ar.len())
	}
	if got := liveEnts(tree.ents) + len(tree.entFree); got != len(tree.ents) {
		t.Fatalf("entry arena leak: live %d + free %d != len %d",
			liveEnts(tree.ents), len(tree.entFree), len(tree.ents))
	}
	if liveEnts(tree.ents) != tree.Len() {
		t.Fatalf("entry arena holds %d live entries, Len() = %d", liveEnts(tree.ents), tree.Len())
	}
}

// checkArenaModel checks the tree against the model of what it stores: the
// entries reachable from the root are exactly live, each once; checkCovers
// holds every node's cover to its contents (the DBCH hull invariant, or R-tree
// MBRs containing their entries); and k-NN answers like a linear scan over
// live. A write through a slotsOf slice held across a call that moved the slot
// arrays (alloc, reserve, reset) is lost, so entries vanish from the tree or
// appear twice — the first check.
func checkArenaModel[C any](t *testing.T, tree *tree[C], checkCovers func(), live []int, byID map[int]*Entry, queries []dist.Query) {
	t.Helper()
	var reached []int
	var walk func(nd int32)
	walk = func(nd int32) {
		for _, s := range tree.ar.slotsOf(nd) {
			if !tree.ar.isLeaf[nd] {
				walk(s)
				continue
			}
			e := tree.ents[s]
			if e == nil {
				t.Fatalf("leaf %d holds freed entry slot %d", nd, s)
			}
			reached = append(reached, e.ID)
		}
	}
	walk(tree.root)
	want := slices.Clone(live)
	slices.Sort(want)
	slices.Sort(reached)
	if !slices.Equal(reached, want) {
		t.Fatalf("entries reachable from the root differ from the live set:\n got %v\nwant %v", reached, want)
	}
	checkCovers()

	entries := make([]*Entry, len(live))
	for i, id := range live {
		entries[i] = byID[id]
	}
	const k = 5
	for qi, q := range queries {
		res, _, err := tree.KNN(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if ov := overlap(res, trueKNN(entries, q.Raw, k)); len(res) != k || ov != k {
			t.Fatalf("query %d: k-NN has %d results, %d/%d against a linear scan over live", qi, len(res), ov, k)
		}
	}
}

// checkRectsContain asserts that every R-tree leaf MBR contains its entries'
// vectors and every child MBR lies inside its parent's.
func checkRectsContain(t *testing.T, tree *RTree) {
	t.Helper()
	var walk func(nd int32)
	walk = func(nd int32) {
		r := tree.ar.covers[nd]
		for _, s := range tree.ar.slotsOf(nd) {
			var in Rect
			if tree.ar.isLeaf[nd] {
				v := tree.ents[s].Vec()
				in = Rect{Lo: v, Hi: v}
			} else {
				in = tree.ar.covers[s]
			}
			if !r.contains(in.Lo) || !r.contains(in.Hi) {
				t.Fatalf("node %d: slot %d escapes the MBR", nd, s)
			}
			if !tree.ar.isLeaf[nd] {
				walk(s)
			}
		}
	}
	walk(tree.root)
}

// TestArenaFreeListReuse churns each tree through many delete/insert cycles
// of constant live size (the DBCH-tree also through InsertBatch and Compact).
// Freed node and entry slots must be reused, so the arenas stay bounded by
// their early high-water mark instead of growing with the total number of
// operations. Each cycle runs every arena primitive the tree uses (alloc and
// freeNode on the incremental paths, and for the DBCH-tree reserve on
// InsertBatch and reset on Compact), and checkArenaModel holds the tree to
// what it stores after the build and after every cycle.
func TestArenaFreeListReuse(t *testing.T) {
	const n, m = 64, 12
	t.Run("DBCH", func(t *testing.T) {
		tree, err := NewDBCH("SAPLA", 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		tree.SafeBound = true
		churnArena(t, tree, &tree.tree, func() { checkHullInvariant(t, tree) }, n, m)
	})
	t.Run("RTree", func(t *testing.T) {
		tree, err := NewRTree("SAPLA", n, m, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		churnArena(t, tree, &tree.tree, func() { checkRectsContain(t, tree) }, n, m)
	})
}

// churnArena is TestArenaFreeListReuse for one tree: idx is the tree and sk
// its skeleton.
func churnArena[C any](t *testing.T, idx Index, sk *tree[C], checkCovers func(), n, m int) {
	type compacter interface {
		InsertBatch([]*Entry) error
		Fragmentation() float64
		Compact()
	}
	cp, compacts := idx.(compacter)
	rng := rand.New(rand.NewSource(60))
	meth := buildMethod(t, "SAPLA")
	const count, churn = 200, 50
	var queries []dist.Query
	for _, e := range makeEntries(t, meth, rand.New(rand.NewSource(61)), 3, n, m) {
		queries = append(queries, dist.NewQuery(e.Raw, e.Rep))
	}
	live := make([]int, 0, count)
	byID := make(map[int]*Entry, count)
	for _, e := range makeEntries(t, meth, rng, count, n, m) {
		if err := idx.Insert(e); err != nil {
			t.Fatal(err)
		}
		live = append(live, e.ID)
		byID[e.ID] = e
	}
	checkArenaModel(t, sk, checkCovers, live, byID, queries)
	nextID := count

	var maxNodes, maxEnts int
	for cycle := 0; cycle < 12; cycle++ {
		for i := 0; i < churn; i++ {
			id := live[0]
			live = live[1:]
			delete(byID, id)
			if !sk.Delete(id) {
				t.Fatalf("cycle %d: entry %d not found", cycle, id)
			}
		}
		// Compact between the deletes and the reinserts: that is when the
		// free lists are at their fullest (reinserting first would drain
		// them and hide the fragmentation).
		if compacts && cycle%4 == 3 {
			if cp.Fragmentation() == 0 {
				t.Fatalf("cycle %d: no fragmentation after %d deletes", cycle, churn)
			}
			cp.Compact()
			if f := cp.Fragmentation(); f != 0 {
				t.Fatalf("cycle %d: fragmentation %v after compaction", cycle, f)
			}
		}
		// Half the reinserts one at a time, the other half as one batch
		// where the tree has InsertBatch.
		var batch []*Entry
		for i := 0; i < churn; i++ {
			raw := randWalk(rng, n)
			rep, err := meth.Reduce(raw, m)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEntry(nextID, raw, rep)
			if i < churn/2 || !compacts {
				if err := idx.Insert(e); err != nil {
					t.Fatal(err)
				}
			} else {
				batch = append(batch, e)
			}
			live = append(live, nextID)
			byID[nextID] = e
			nextID++
		}
		if compacts {
			if err := cp.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		checkArenaAccounting(t, sk)
		checkArenaModel(t, sk, checkCovers, live, byID, queries)
		if idx.Len() != count {
			t.Fatalf("cycle %d: Len = %d, want %d", cycle, idx.Len(), count)
		}
		// The first half establishes the high-water mark (one full compact
		// period plus the post-compaction regrowth, whose shape legitimately
		// differs a little from the incremental build). Later cycles must
		// stay near it: a leak — freed slots never reused — would grow the
		// node arena by ~churn/2 slots every cycle and blow far past 150%.
		if cycle < 6 {
			maxNodes = max(maxNodes, sk.ar.len())
			maxEnts = max(maxEnts, len(sk.ents))
			continue
		}
		if limit := maxNodes + maxNodes/2; sk.ar.len() > limit {
			t.Fatalf("cycle %d: node arena grew to %d, past 150%% of high-water %d (slot leak)",
				cycle, sk.ar.len(), maxNodes)
		}
		if len(sk.ents) > maxEnts {
			t.Fatalf("cycle %d: entry arena grew past high-water %d to %d (slot leak)",
				cycle, maxEnts, len(sk.ents))
		}
	}
}

// TestCompactMatchesBulkLoad pins the compaction contract: a compacted tree
// is bit-identical to a fresh tree bulk-loaded with the same live entries in
// the same (entry-id) order — identical arena layout, and k-NN answers equal
// down to the distance bits.
func TestCompactMatchesBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	meth := buildMethod(t, "SAPLA")
	const n, m, count = 64, 12, 150
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range makeEntries(t, meth, rng, count, n, m) {
		if err := tree.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < count; id += 4 {
		if !tree.Delete(id) {
			t.Fatalf("entry %d not found", id)
		}
	}
	if tree.Fragmentation() == 0 {
		t.Fatal("no fragmentation after deleting a quarter of the tree")
	}

	// The live entries in the order Compact collects them (ascending entry id).
	var survivors []*Entry
	for _, e := range tree.ents {
		if e != nil {
			survivors = append(survivors, e)
		}
	}

	tree.Compact()
	checkArenaAccounting(t, &tree.tree)

	fresh, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.BulkLoad(survivors); err != nil {
		t.Fatal(err)
	}

	// Structural identity, node by node.
	if tree.root != fresh.root || tree.ar.len() != fresh.ar.len() {
		t.Fatalf("shape mismatch: root %d/%d, nodes %d/%d",
			tree.root, fresh.root, tree.ar.len(), fresh.ar.len())
	}
	for nd := int32(0); nd < int32(tree.ar.len()); nd++ {
		if tree.ar.isLeaf[nd] != fresh.ar.isLeaf[nd] || tree.ar.count[nd] != fresh.ar.count[nd] {
			t.Fatalf("node %d: kind/count mismatch", nd)
		}
		a, b := tree.ar.slotsOf(nd), fresh.ar.slotsOf(nd)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d slot %d: %d != %d", nd, i, a[i], b[i])
			}
		}
		ha, hb := tree.ar.covers[nd], fresh.ar.covers[nd]
		if ha.hullU != hb.hullU || ha.hullL != hb.hullL {
			t.Fatalf("node %d: hull mismatch", nd)
		}
		if math.Float64bits(ha.volume) != math.Float64bits(hb.volume) ||
			math.Float64bits(ha.coverU) != math.Float64bits(hb.coverU) ||
			math.Float64bits(ha.coverL) != math.Float64bits(hb.coverL) {
			t.Fatalf("node %d: volume/cover bits differ", nd)
		}
	}

	// And the observable contract: identical k-NN answers, bit for bit.
	ws1, ws2 := NewWorkspace(), NewWorkspace()
	for trial := 0; trial < 10; trial++ {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		q := dist.NewQuery(raw, rep)
		res1, st1, err1 := tree.KNNWith(ws1, q, 7)
		res2, st2, err2 := fresh.KNNWith(ws2, q, 7)
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: %v / %v", trial, err1, err2)
		}
		if len(res1) != len(res2) || st1 != st2 {
			t.Fatalf("trial %d: result shape %d/%d, stats %+v vs %+v",
				trial, len(res1), len(res2), st1, st2)
		}
		for i := range res1 {
			if res1[i].Entry != res2[i].Entry ||
				math.Float64bits(res1[i].Dist) != math.Float64bits(res2[i].Dist) {
				t.Fatalf("trial %d result %d: (%d, %x) vs (%d, %x)",
					trial, i,
					res1[i].Entry.ID, math.Float64bits(res1[i].Dist),
					res2[i].Entry.ID, math.Float64bits(res2[i].Dist))
			}
		}
	}
}

// TestInsertBatchMatchesIncremental: the batched path over a non-empty tree
// must answer queries like the incremental path does (same membership; the
// layouts differ, the answers may not).
func TestInsertBatchMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	meth := buildMethod(t, "SAPLA")
	const n, m, count = 64, 12, 120
	entries := makeEntries(t, meth, rng, count, n, m)

	batched, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	batched.SafeBound = true
	// Seed a non-empty tree so InsertBatch takes the incremental-reserve
	// path, then batch the rest in two waves.
	for _, e := range entries[:20] {
		if err := batched.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.InsertBatch(entries[20:80]); err != nil {
		t.Fatal(err)
	}
	if err := batched.InsertBatch(entries[80:]); err != nil {
		t.Fatal(err)
	}
	if batched.Len() != count {
		t.Fatalf("Len = %d, want %d", batched.Len(), count)
	}
	checkArenaAccounting(t, &batched.tree)

	// An empty tree takes the bulk-load path.
	bulk, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	bulk.SafeBound = true
	if err := bulk.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != count {
		t.Fatalf("bulk Len = %d, want %d", bulk.Len(), count)
	}

	for trial := 0; trial < 5; trial++ {
		q := randWalk(rng, n)
		qr, err := meth.Reduce(q, m)
		if err != nil {
			t.Fatal(err)
		}
		query := dist.NewQuery(q, qr)
		want := trueKNN(entries, q, 5)
		for name, tree := range map[string]*DBCH{"batched": batched, "bulk": bulk} {
			res, _, err := tree.KNN(query, 5)
			if err != nil {
				t.Fatal(err)
			}
			if ov := overlap(res, want); ov != 5 {
				t.Fatalf("trial %d %s: %d/5 against linear scan", trial, name, ov)
			}
		}
	}
}
