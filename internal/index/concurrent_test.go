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
// both inner types: every committed mutation advances Epoch by exactly one,
// a failed one leaves it where it was, and on a quiescent index KNNSnapshot
// reports the same epoch Epoch does.
func TestConcurrentIndexEpochContract(t *testing.T) {
	flat := NewFlat()
	for _, tc := range []struct {
		name     string
		ci       *ConcurrentIndex
		compacts bool // inner is a Compactor
	}{
		{"DBCH", newConcurrentDBCH(t), true},
		{"Flat", NewConcurrent(flat), false},
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

// TestConcurrentIndexStress interleaves Insert/Delete/KNN/BatchKNN under the
// race detector and asserts every k-NN answer corresponds to SOME consistent
// snapshot of the index:
//
//   - a fixed "core" set of entries is never deleted, so a query for
//     k >= core+churn must always return every core ID;
//   - every returned distance must equal the exact Euclidean distance
//     recomputed from the entry it names, and results must be sorted;
//   - the epoch stamped on the search must not move backwards between
//     consecutive reads on one goroutine (snapshots are monotonic).
//
// Torn reads (a search observing a mid-split node) would either trip the
// race detector, panic, or drop a core entry from the answer set.
func TestConcurrentIndexStress(t *testing.T) {
	const (
		n     = 64 // series length
		m     = 12 // coefficient budget
		coreN = 24
		chrnN = 16
	)
	rng := rand.New(rand.NewSource(99))
	meth := buildMethod(t, "SAPLA")

	core := makeEntries(t, meth, rng, coreN, n, m)
	churn := make([]*Entry, chrnN)
	for i := range churn {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		churn[i] = NewEntry(1000+i, raw, rep)
	}

	ci := newConcurrentDBCH(t)
	for _, e := range core {
		if err := ci.Insert(e); err != nil {
			t.Fatal(err)
		}
	}

	queries := make([]dist.Query, 8)
	for i := range queries {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = dist.NewQuery(raw, rep)
	}

	dur := 800 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers: each owns a disjoint slice of churn entries and cycles
	// insert -> delete so no ID is ever double-inserted.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(mine []*Entry) {
			defer wg.Done()
			for !stop.Load() {
				for _, e := range mine {
					if err := ci.Insert(e); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
				for _, e := range mine {
					if !ci.Delete(e.ID) {
						t.Errorf("delete %d: not found", e.ID)
						return
					}
				}
			}
		}(churn[w*chrnN/2 : (w+1)*chrnN/2])
	}

	checkResults := func(res []Result) {
		seen := make(map[int]bool, len(res))
		prev := math.Inf(-1)
		for _, r := range res {
			if r.Dist < prev {
				t.Errorf("results not sorted: %g after %g", r.Dist, prev)
				return
			}
			prev = r.Dist
			if seen[r.Entry.ID] {
				t.Errorf("duplicate id %d in results", r.Entry.ID)
				return
			}
			seen[r.Entry.ID] = true
		}
	}
	// checkSnapshot additionally verifies that a k >= everything query holds
	// the complete never-deleted core set and exact recomputed distances.
	checkSnapshot := func(q dist.Query, res []Result) {
		checkResults(res)
		if len(res) < coreN {
			t.Errorf("k-NN returned %d results, fewer than the %d core entries", len(res), coreN)
			return
		}
		got := make(map[int]bool, len(res))
		for _, r := range res {
			got[r.Entry.ID] = true
			exact := math.Sqrt(ts.EuclideanSq(q.Raw, r.Entry.Raw))
			if math.Abs(exact-r.Dist) > 1e-9 {
				t.Errorf("id %d: reported dist %g, exact %g (torn read?)", r.Entry.ID, r.Dist, exact)
				return
			}
		}
		for _, e := range core {
			if !got[e.ID] {
				t.Errorf("core id %d missing from full k-NN (inconsistent snapshot)", e.ID)
				return
			}
		}
	}

	// Readers: single-query KNNSnapshot path with monotone epochs.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(q dist.Query) {
			defer wg.Done()
			ws := NewWorkspace()
			var lastEpoch uint64
			for !stop.Load() {
				res, _, epoch, err := ci.KNNSnapshot(ws, q, coreN+chrnN)
				if err != nil {
					t.Errorf("knn: %v", err)
					return
				}
				if epoch < lastEpoch {
					t.Errorf("epoch moved backwards: %d -> %d", lastEpoch, epoch)
					return
				}
				lastEpoch = epoch
				checkSnapshot(q, res)
			}
		}(queries[r])
	}

	// Batch reader: the BatchKNN pool over the shared index.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			out, _, err := BatchKNN(ci, queries, coreN+chrnN, 4)
			if err != nil {
				t.Errorf("batch knn: %v", err)
				return
			}
			for i, res := range out {
				checkSnapshot(queries[i], res)
			}
		}
	}()

	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	// After the dust settles only the core set remains.
	if got := ci.Len(); got != coreN {
		t.Fatalf("final Len = %d, want %d", got, coreN)
	}
}

// TestShardedEpochMonotonicStress extends the epoch-monotonicity contract to
// the sharded scatter-gather path: under concurrent per-shard mutation,
//
//   - each shard's epoch, sampled repeatedly from reader goroutines, never
//     moves backwards (per-shard snapshots are monotonic);
//   - concurrent ShardedIndex.KNNWith answers stay sorted, duplicate-free,
//     hold the complete never-deleted core set, and carry exact recomputed
//     distances — a torn cross-shard gather would drop or corrupt entries.
//
// The shard count is 3 so the churn IDs spread unevenly (ShardOf hashes),
// and writers own disjoint ID ranges so no ID is double-inserted.
func TestShardedEpochMonotonicStress(t *testing.T) {
	const (
		n      = 64
		m      = 12
		coreN  = 24
		chrnN  = 18
		shards = 3
	)
	rng := rand.New(rand.NewSource(77))
	meth := buildMethod(t, "SAPLA")

	core := makeEntries(t, meth, rng, coreN, n, m)
	churn := make([]*Entry, chrnN)
	for i := range churn {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		churn[i] = NewEntry(3000+i, raw, rep)
	}

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
	if err := si.InsertBatch(core); err != nil {
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

	checkAnswer := func(q dist.Query, res []Result) {
		seen := make(map[int]bool, len(res))
		prev := math.Inf(-1)
		for _, r := range res {
			if r.Dist < prev {
				t.Errorf("sharded results not sorted: %g after %g", r.Dist, prev)
				return
			}
			prev = r.Dist
			if seen[r.Entry.ID] {
				t.Errorf("duplicate id %d in sharded gather", r.Entry.ID)
				return
			}
			seen[r.Entry.ID] = true
			exact := math.Sqrt(ts.EuclideanSq(q.Raw, r.Entry.Raw))
			if math.Abs(exact-r.Dist) > 1e-9 {
				t.Errorf("id %d: reported dist %g, exact %g (torn cross-shard read?)", r.Entry.ID, r.Dist, exact)
				return
			}
		}
		if len(res) < coreN {
			t.Errorf("sharded k-NN returned %d results, fewer than the %d core entries", len(res), coreN)
			return
		}
		for _, e := range core {
			if !seen[e.ID] {
				t.Errorf("core id %d missing from sharded k-NN (inconsistent shard snapshot)", e.ID)
				return
			}
		}
	}

	dur := 800 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writers: disjoint churn halves, cycled insert -> delete through the
	// sharded router so every shard sees mutation traffic.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(mine []*Entry) {
			defer wg.Done()
			for !stop.Load() {
				for _, e := range mine {
					if err := si.Insert(e); err != nil {
						t.Errorf("sharded insert: %v", err)
						return
					}
				}
				for _, e := range mine {
					if !si.Delete(e.ID) {
						t.Errorf("sharded delete %d: not found", e.ID)
						return
					}
				}
			}
		}(churn[w*chrnN/2 : (w+1)*chrnN/2])
	}

	// Epoch watchers: each samples every shard's epoch in a tight loop and
	// asserts per-shard monotonicity.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]uint64, shards)
			for !stop.Load() {
				for i := 0; i < shards; i++ {
					epoch := si.Shard(i).Epoch()
					if epoch < last[i] {
						t.Errorf("shard %d epoch moved backwards: %d -> %d", i, last[i], epoch)
						return
					}
					last[i] = epoch
				}
			}
		}()
	}

	// Scatter-gather readers: full-coverage KNNWith under mutation.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(q dist.Query) {
			defer wg.Done()
			ws := NewWorkspace()
			for !stop.Load() {
				res, _, err := si.KNNWith(ws, q, coreN+chrnN)
				if err != nil {
					t.Errorf("sharded knn: %v", err)
					return
				}
				checkAnswer(q, res)
			}
		}(queries[r])
	}

	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if got := si.Len(); got != coreN {
		t.Fatalf("final sharded Len = %d, want %d", got, coreN)
	}
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
