package index

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

func newConcurrentDBCH(t *testing.T) *ConcurrentIndex {
	t.Helper()
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	tree.SafeBound = true
	return NewConcurrent(tree)
}

// TestConcurrentRangeWithoutRange: over an index with no range search, Range
// is ErrNoRange — bare, and behind one and four shards — not an empty answer.
func TestConcurrentRangeWithoutRange(t *testing.T) {
	type knnOnly struct{ Index } // hides the scan's Range
	entries := makeEntries(t, buildMethod(t, "SAPLA"), rand.New(rand.NewSource(8)), 20, 64, 12)
	q := dist.NewQuery(entries[0].Raw, entries[0].Rep)
	inner := func(int) (Index, error) { return knnOnly{NewLinearScan()}, nil }
	s1, _ := NewSharded(1, inner)
	s4, _ := NewSharded(4, inner)
	for name, idx := range map[string]flatLike{"bare": NewConcurrent(knnOnly{NewLinearScan()}), "sharded1": s1, "sharded4": s4} {
		if err := idx.InsertBatch(entries); err != nil {
			t.Fatal(err)
		}
		res, _, err := idx.Range(q, math.Inf(1))
		if !errors.Is(err, ErrNoRange) || res != nil {
			t.Fatalf("%s: range %d results, err %v; want ErrNoRange", name, len(res), err)
		}
	}
}

func TestConcurrentIndexBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 30, 128, 12)
	ci := newConcurrentDBCH(t)
	for _, e := range entries {
		if err := ci.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if ci.Len() != 30 {
		t.Fatalf("Len = %d, want 30", ci.Len())
	}
	if ci.Epoch() != 30 {
		t.Fatalf("Epoch = %d, want 30 after 30 inserts", ci.Epoch())
	}

	q := dist.NewQuery(entries[0].Raw, entries[0].Rep)
	res, _, err := ci.KNN(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 || res[0].Entry.ID != entries[0].ID {
		t.Fatalf("self-query: got %d results, top id %v", len(res), res[0].Entry.ID)
	}

	rres, _, err := ci.Range(q, res[2].Dist)
	if err != nil {
		t.Fatal(err)
	}
	if len(rres) < 3 {
		t.Fatalf("range with radius of 3rd NN returned %d results", len(rres))
	}

	if !ci.Delete(entries[0].ID) {
		t.Fatal("Delete of present id returned false")
	}
	if ci.Delete(entries[0].ID) {
		t.Fatal("Delete of absent id returned true")
	}
	if ci.Len() != 29 {
		t.Fatalf("Len after delete = %d, want 29", ci.Len())
	}

	var statsLen int
	ci.View(func(idx Index) { statsLen = idx.Len() })
	if statsLen != 29 {
		t.Fatalf("View saw Len %d, want 29", statsLen)
	}
}

// TestConcurrentIndexEpochContract pins the single-counter invariant for
// every inner type: every committed mutation advances Epoch by exactly one,
// a failed one leaves it where it was, and on a quiescent index KNNSnapshot
// reports the same epoch Epoch does. An inner index without a batch path
// (RTree) takes a batch one entry at a time, which is not atomic: a batch
// refused at its third entry has changed the index, so it advances the epoch.
func TestConcurrentIndexEpochContract(t *testing.T) {
	rtree, err := NewRTree("SAPLA", 64, 12, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		ci       *ConcurrentIndex
		compacts bool // inner is a Compactor
	}{
		{"DBCH", newConcurrentDBCH(t), true},
		{"Flat", NewConcurrent(NewFlat()), false},
		{"RTree", NewConcurrent(rtree), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			meth := buildMethod(t, "SAPLA")
			entries := makeEntries(t, meth, rng, 20, 64, 12)
			ci, want := tc.ci, uint64(0)
			step := func(op string, committed bool) {
				t.Helper()
				if committed {
					want++
				}
				if got := ci.Epoch(); got != want {
					t.Fatalf("after %s: Epoch = %d, want %d", op, got, want)
				}
			}

			step("construction", false)
			if tc.name == "RTree" {
				other := makeEntries(t, meth, rng, 1, 64, 6)[0] // another dimension
				if err := ci.InsertBatch([]*Entry{entries[0], entries[1], other}); err == nil {
					t.Fatal("InsertBatch with an entry of another dimension succeeded")
				}
				step("InsertBatch refused at its third entry", true)
				if ci.Len() != 2 {
					t.Fatalf("Len = %d after the refused batch, want 2", ci.Len())
				}
				return
			}
			if err := ci.Insert(entries[0]); err != nil {
				t.Fatal(err)
			}
			step("Insert", true)
			if err := ci.InsertBatch(entries[1:]); err != nil {
				t.Fatal(err)
			}
			step("InsertBatch of 19", true)
			if err := ci.InsertBatch(nil); err != nil {
				t.Fatal(err)
			}
			step("empty InsertBatch", false)
			if !tc.compacts {
				// Flat rejects a duplicate ID, singly and inside a batch
				// (which it then unwinds); the tree does not check.
				if err := ci.Insert(entries[3]); err == nil {
					t.Fatal("duplicate-ID Insert succeeded")
				}
				step("duplicate-ID Insert", false)
				fresh := makeEntries(t, meth, rng, 1, 64, 12)[0]
				fresh.ID = 900
				if err := ci.InsertBatch([]*Entry{fresh, entries[3]}); err == nil {
					t.Fatal("InsertBatch with a duplicate ID succeeded")
				}
				step("InsertBatch with a duplicate ID", false)
			}
			if ci.Compact(0.99) {
				t.Fatal("Compact(0.99) rebuilt an unfragmented index")
			}
			step("Compact below threshold", false)
			for _, e := range entries[:5] {
				if !ci.Delete(e.ID) {
					t.Fatalf("Delete(%d) = false", e.ID)
				}
				step("Delete", true)
			}
			if ci.Delete(entries[0].ID) {
				t.Fatal("Delete of an absent ID returned true")
			}
			step("Delete of an absent ID", false)
			if got := ci.Compact(0); got != tc.compacts {
				t.Fatalf("Compact(0) = %v, want %v", got, tc.compacts)
			}
			step("Compact(0)", tc.compacts)

			q := dist.NewQuery(entries[7].Raw, entries[7].Rep)
			_, _, epoch, err := ci.KNNSnapshot(NewWorkspace(), q, 3)
			if err != nil {
				t.Fatal(err)
			}
			if epoch != ci.Epoch() {
				t.Fatalf("KNNSnapshot epoch = %d, Epoch() = %d on a quiescent index", epoch, ci.Epoch())
			}
			step("KNNSnapshot", false)
			if ci.Len() != 15 {
				t.Fatalf("Len = %d, want 15", ci.Len())
			}
		})
	}
}

func TestConcurrentIndexDeleteOnNonDeleter(t *testing.T) {
	ci := NewConcurrent(NewLinearScan())
	if err := ci.Insert(NewEntry(1, ts.Series{1, 2, 3}, nil)); err != nil {
		t.Fatal(err)
	}
	if ci.Delete(1) {
		t.Fatal("Delete on linear scan should report false")
	}
	if ci.Len() != 1 {
		t.Fatalf("Len = %d, want 1", ci.Len())
	}
}

// churnIndex is what churnStress drives: a bare ConcurrentIndex and a
// ShardedIndex both satisfy it.
type churnIndex interface {
	Index
	BatchInserter
	Deleter
}

// churnStress holds a core-plus-churn stress to one contract under the race
// detector. idx starts with 24 core entries that are never deleted; two
// writers cycle disjoint halves of chrnN churn entries (IDs from firstChurn)
// through Insert and Delete, so no ID is ever double-inserted; two readers
// run read — one k-NN, and the epochs it observed, one per shard — and one
// runs BatchKNN over every query, for 800 ms (150 ms with
// -short). Every answer with k covering core and churn must be canonically
// ordered, duplicate-free, carry exact recomputed distances and hold every
// core ID (a torn read would drop or corrupt one), and the epochs each reader
// observes never decrease. After the dust settles only the core remains.
func churnStress(t *testing.T, seed int64, chrnN, firstChurn, nq int, idx churnIndex,
	read func(ws *Workspace, q dist.Query, k int) ([]Result, []uint64, error)) {
	const n, m, coreN = 64, 12, 24
	rng := rand.New(rand.NewSource(seed))
	meth := buildMethod(t, "SAPLA")
	core := makeEntries(t, meth, rng, coreN, n, m)
	churn := makeEntries(t, meth, rng, chrnN, n, m)
	for i, e := range churn {
		e.ID = firstChurn + i
	}
	queries := make([]dist.Query, nq)
	for i, e := range makeEntries(t, meth, rng, nq, n, m) {
		queries[i] = dist.NewQuery(e.Raw, e.Rep)
	}
	if err := idx.InsertBatch(core); err != nil {
		t.Fatal(err)
	}
	check := func(q dist.Query, res []Result) bool {
		checkSound(t, q, res)
		seen := make(map[int]bool, len(res))
		for _, r := range res {
			seen[r.Entry.ID] = true
		}
		for _, e := range core {
			if !seen[e.ID] {
				t.Errorf("core id %d missing from a k-NN over everything (inconsistent snapshot)", e.ID)
				return false
			}
		}
		return !t.Failed()
	}

	dur := 800 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	run := func(f func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && f() {
			}
		}()
	}
	for w := 0; w < 2; w++ {
		mine := churn[w*chrnN/2 : (w+1)*chrnN/2]
		run(func() bool {
			for _, e := range mine {
				if err := idx.Insert(e); err != nil {
					t.Errorf("insert: %v", err)
					return false
				}
			}
			for _, e := range mine {
				if !idx.Delete(e.ID) {
					t.Errorf("delete %d: not found", e.ID)
					return false
				}
			}
			return true
		})
	}
	for r := 0; r < 2; r++ {
		q, ws, last := queries[r], NewWorkspace(), []uint64(nil)
		run(func() bool {
			res, epochs, err := read(ws, q, coreN+chrnN)
			if err != nil {
				t.Errorf("knn: %v", err)
				return false
			}
			for i, e := range epochs {
				if last != nil && e < last[i] {
					t.Errorf("epoch %d moved backwards: %d -> %d", i, last[i], e)
					return false
				}
			}
			last = epochs
			return check(q, res)
		})
	}
	run(func() bool {
		out, _, err := BatchKNN(idx, queries, coreN+chrnN, 4)
		if err != nil {
			t.Errorf("batch knn: %v", err)
			return false
		}
		for i, res := range out {
			if !check(queries[i], res) {
				return false
			}
		}
		return true
	})
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	if got := idx.Len(); got != coreN {
		t.Fatalf("final Len = %d, want %d", got, coreN)
	}
}

// TestConcurrentIndexStress is churnStress over a bare ConcurrentIndex of a
// DBCH tree, read through KNNSnapshot and the epoch it stamps.
func TestConcurrentIndexStress(t *testing.T) {
	ci := newConcurrentDBCH(t)
	churnStress(t, 99, 16, 1000, 8, ci, func(ws *Workspace, q dist.Query, k int) ([]Result, []uint64, error) {
		res, _, epoch, err := ci.KNNSnapshot(ws, q, k)
		return res, []uint64{epoch}, err
	})
}

// TestShardedEpochMonotonicStress is churnStress over three DBCH shards (the
// churn IDs spread unevenly), read through the scatter-gather KNNWith, each
// read followed by every shard's epoch.
func TestShardedEpochMonotonicStress(t *testing.T) {
	const shards = 3
	si, err := NewSharded(shards, func(int) (Index, error) {
		tree, err := NewDBCH("SAPLA", 2, 5)
		if err != nil {
			return nil, err
		}
		tree.SafeBound = true
		return tree, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	churnStress(t, 77, 18, 3000, 4, si, func(ws *Workspace, q dist.Query, k int) ([]Result, []uint64, error) {
		res, _, err := si.KNNWith(ws, q, k)
		epochs := make([]uint64, shards)
		for i := range epochs {
			epochs[i] = si.Shard(i).Epoch()
		}
		return res, epochs, err
	})
}

// TestConcurrentCompactionDuringQueries interleaves arena compaction with
// batched writes and k-NN reads under the race detector. Compaction moves
// every node and entry slot, so a search overlapping a rebuild without the
// epoch/lock protocol would read freed or re-packed slots: wrong IDs, wrong
// distances, or a straight race report. A never-deleted core set plus exact
// distance recomputation makes those failures observable.
func TestConcurrentCompactionDuringQueries(t *testing.T) {
	const (
		n     = 64
		m     = 12
		coreN = 20
		chrnN = 12
	)
	rng := rand.New(rand.NewSource(101))
	meth := buildMethod(t, "SAPLA")
	core := makeEntries(t, meth, rng, coreN, n, m)
	churn := make([]*Entry, chrnN)
	for i := range churn {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		churn[i] = NewEntry(2000+i, raw, rep)
	}

	ci := newConcurrentDBCH(t)
	if err := ci.InsertBatch(core); err != nil {
		t.Fatal(err)
	}

	queries := make([]dist.Query, 4)
	for i := range queries {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = dist.NewQuery(raw, rep)
	}

	dur := 500 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: batch-insert the churn set, delete it again — every delete
	// leaves freed arena slots for the compactor to reclaim.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := ci.InsertBatch(churn); err != nil {
				t.Errorf("insert batch: %v", err)
				return
			}
			for _, e := range churn {
				if !ci.Delete(e.ID) {
					t.Errorf("delete %d: not found", e.ID)
					return
				}
			}
		}
	}()

	// Compactor: threshold 0 accepts any fragmentation level, so rebuilds
	// run as fast as the exclusive lock allows.
	var compactions int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if ci.Compact(0) {
				compactions++
			}
		}
	}()

	// Readers: every answer must hold the complete core set with exact
	// distances, whatever the compactor did to the memory layout.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(q dist.Query) {
			defer wg.Done()
			ws := NewWorkspace()
			for !stop.Load() {
				res, _, err := ci.KNNWith(ws, q, coreN+chrnN)
				if err != nil {
					t.Errorf("knn: %v", err)
					return
				}
				if len(res) < coreN {
					t.Errorf("k-NN returned %d results, fewer than the %d core entries", len(res), coreN)
					return
				}
				got := make(map[int]bool, len(res))
				for _, rr := range res {
					got[rr.Entry.ID] = true
					exact := math.Sqrt(ts.EuclideanSq(q.Raw, rr.Entry.Raw))
					if math.Abs(exact-rr.Dist) > 1e-9 {
						t.Errorf("id %d: reported dist %g, exact %g (torn read?)", rr.Entry.ID, rr.Dist, exact)
						return
					}
				}
				for _, e := range core {
					if !got[e.ID] {
						t.Errorf("core id %d missing mid-compaction", e.ID)
						return
					}
				}
			}
		}(queries[r])
	}

	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if compactions == 0 {
		t.Fatal("compactor never ran; the test exercised nothing")
	}
	if got := ci.Len(); got != coreN {
		t.Fatalf("final Len = %d, want %d", got, coreN)
	}
}
