package index

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sapla/internal/dist"
	"sapla/internal/reduce"
)

func newShardedDBCH(t *testing.T, shards int) *ShardedIndex {
	t.Helper()
	s, err := NewSharded(shards, func(int) (Index, error) {
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
	return s
}

func TestShardOfStableAndCovering(t *testing.T) {
	// Pinned values: the hash routes WAL records to shard directories, so a
	// change here silently orphans persisted data. These are the observed
	// outputs of the splitmix64 finalizer — a regression means the function
	// changed, not that these numbers are special.
	pinned := map[int]int{0: 2, 1: 2, 2: 4, 100: 3, 12345: 5}
	for id, want := range pinned {
		if got := ShardOf(id, 7); got != want {
			t.Errorf("ShardOf(%d, 7) = %d, want %d (routing hash changed!)", id, got, want)
		}
	}
	for _, shards := range []int{1, 2, 4, 7, 8} {
		counts := make([]int, shards)
		for id := 0; id < 10_000; id++ {
			si := ShardOf(id, shards)
			if si < 0 || si >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, shards, si)
			}
			counts[si]++
		}
		for si, c := range counts {
			if c == 0 {
				t.Errorf("shards=%d: shard %d got no IDs out of 10000", shards, si)
			}
			// Uniformity within a loose factor-of-2 band.
			if exp := 10_000 / shards; c < exp/2 || c > exp*2 {
				t.Errorf("shards=%d: shard %d got %d IDs, expected near %d", shards, si, c, exp)
			}
		}
	}
	if ShardOf(42, 1) != 0 || ShardOf(42, 0) != 0 {
		t.Error("ShardOf with <=1 shards must return 0")
	}
}

// identicalResults requires the same IDs and bit-identical distances.
func identicalResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Entry.ID != want[i].Entry.ID {
			t.Fatalf("%s: result %d id %d, want %d", label, i, got[i].Entry.ID, want[i].Entry.ID)
		}
		if math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: result %d dist bits %x, want %x", label,
				i, math.Float64bits(got[i].Dist), math.Float64bits(want[i].Dist))
		}
	}
}

// duplicatedEntries reduces 220 random walks and appends exact duplicates of a
// third of them under fresh IDs: their distances to any query are
// bit-identical, so the (distance, ID) tie-break is actually load-bearing, not
// decorative.
func duplicatedEntries(t *testing.T, meth reduce.Method, rng *rand.Rand) []*Entry {
	t.Helper()
	entries := makeEntries(t, meth, rng, 220, 128, 12)
	base := len(entries)
	for i := 0; i < base/3; i++ {
		src := entries[i*3%base]
		entries = append(entries, NewEntry(base+i, src.Raw, src.Rep))
	}
	return entries
}

// shardedFixture builds the same duplicatedEntries into sharded indexes of
// several shard counts.
func shardedFixture(t *testing.T, meth reduce.Method, rng *rand.Rand) ([]*Entry, []*ShardedIndex) {
	t.Helper()
	entries := duplicatedEntries(t, meth, rng)
	indexes := make([]*ShardedIndex, 0, 3)
	for _, shards := range []int{1, 2, 8} {
		s := newShardedDBCH(t, shards)
		if err := s.InsertBatch(entries); err != nil {
			t.Fatal(err)
		}
		if s.Len() != len(entries) {
			t.Fatalf("shards=%d Len = %d, want %d", shards, s.Len(), len(entries))
		}
		indexes = append(indexes, s)
	}
	return entries, indexes
}

// handOffKNN runs one scatter-gather search and, next to it, every shard's
// search on its own fresh workspace — what the shards measure when none is
// handed the bound the ones before it earned. The hand-off may only save.
func handOffKNN(t *testing.T, label string, s *ShardedIndex, ws *Workspace, q dist.Query, k int) (res []Result, measured, independent int) {
	t.Helper()
	res, stats, err := s.KNNWith(ws, q, k)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if stats.Filtered != s.Len() {
		t.Fatalf("%s: filtered %d of %d", label, stats.Filtered, s.Len())
	}
	res = append([]Result(nil), res...)
	for i := 0; i < s.NumShards(); i++ {
		_, st, err := s.Shard(i).KNNWith(NewWorkspace(), q, k)
		if err != nil {
			t.Fatalf("%s shard %d: %v", label, i, err)
		}
		independent += st.Measured
	}
	if stats.Measured > independent {
		t.Fatalf("%s: measured %d, the shards on their own %d", label, stats.Measured, independent)
	}
	return res, stats.Measured, independent
}

// TestShardedFlatHandOffLowerBound: the bound handed from flat shard to flat
// shard dismisses no neighbour — the answer is the linear scan's to the
// distance bit at every shard count, ties included: a stored series' query
// hands the next shard a bound of exactly 0, which its duplicate there ties
// with a filter distance of 0, and the lower ID must win. And the bound
// saves: no query measures more than its shards would independently, and
// over the run a multi-shard index measures strictly less.
func TestShardedFlatHandOffLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	meth := buildMethod(t, "SAPLA")
	model := &flatModel{t: t, live: make(map[int]*Entry)}
	entries := duplicatedEntries(t, meth, rng)
	for _, e := range entries {
		model.live[e.ID] = e
	}
	queries := make([]dist.Query, 12)
	for qi := range queries {
		raw := randWalk(rng, 128)
		if qi%3 == 0 {
			raw = entries[qi*7%len(entries)].Raw // stored series: guaranteed exact ties
		}
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		queries[qi] = dist.NewQuery(raw, rep)
	}
	ws := NewWorkspace()
	for _, k := range []int{1, 10} {
		for _, shards := range []int{1, 2, 4, 7} {
			s := newShardedFlat(t, shards)
			if err := s.InsertBatch(entries); err != nil {
				t.Fatal(err)
			}
			var measured, independent int
			for qi, q := range queries {
				label := testLabel(fmt.Sprintf("hand-off k=%d", k), qi, shards, 0)
				res, m, ind := handOffKNN(t, label, s, ws, q, k)
				measured, independent = measured+m, independent+ind
				want, _, _ := model.scan().KNN(q, k)
				if len(res) != k {
					t.Fatalf("%s: %d results", label, len(res))
				}
				model.valid(label, q, res)
				identicalResults(t, label, res, want)
			}
			if shards > 1 && measured >= independent {
				t.Fatalf("k=%d shards=%d: measured %d, the shards on their own %d: the bound saved nothing",
					k, shards, measured, independent)
			}
		}
	}
}

// TestShardedKNNByteIdenticalAcrossShardCounts is the tentpole determinism
// property: k-NN answers — IDs and Float64bits of every distance — must not
// depend on the shard count, and must not change across repeated runs.
func TestShardedKNNByteIdenticalAcrossShardCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	meth := buildMethod(t, "SAPLA")
	entries, indexes := shardedFixture(t, meth, rng)

	ws := NewWorkspace()
	for qi := 0; qi < 12; qi++ {
		raw := randWalk(rng, 128)
		if qi%3 == 0 {
			raw = entries[qi*7%len(entries)].Raw // stored series: guaranteed exact ties
		}
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		q := dist.NewQuery(raw, rep)
		ref, _, err := indexes[0].KNNWith(ws, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		refCopy := append([]Result(nil), ref...)
		for run := 0; run < 2; run++ {
			for i, s := range indexes {
				res, _, err := s.KNN(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				identicalResults(t, testLabel("knn", qi, s.NumShards(), run), res, refCopy)
				_ = i
			}
		}
	}
}

func testLabel(kind string, qi, shards, run int) string {
	return fmt.Sprintf("%s q%d shards=%d run=%d", kind, qi, shards, run)
}

// TestShardedRangeByteIdenticalAcrossShardCounts checks the ε-range merge
// the same way: concatenate-and-sort must equal the single-shard answer.
func TestShardedRangeByteIdenticalAcrossShardCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	meth := buildMethod(t, "SAPLA")
	entries, indexes := shardedFixture(t, meth, rng)

	for qi := 0; qi < 8; qi++ {
		raw := entries[qi*5%len(entries)].Raw
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		q := dist.NewQuery(raw, rep)
		// Radius of the ~8th neighbour keeps the answer non-trivial.
		ref, _, err := indexes[0].KNN(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		radius := ref[len(ref)-1].Dist
		want, _, err := indexes[0].Range(q, radius)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("query %d: empty reference range answer", qi)
		}
		for run := 0; run < 2; run++ {
			for _, s := range indexes {
				res, _, err := s.Range(q, radius)
				if err != nil {
					t.Fatal(err)
				}
				identicalResults(t, testLabel("range", qi, s.NumShards(), run), res, want)
			}
		}
	}
}

// TestShardedBatchKNNMatchesSequential pins the batch engine — one task per
// query, each the whole scatter-gather — to the same searches run one after
// the other on one workspace, for every worker count.
func TestShardedBatchKNNMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	meth := buildMethod(t, "SAPLA")
	entries, indexes := shardedFixture(t, meth, rng)

	queries := make([]dist.Query, 9)
	for i := range queries {
		raw := randWalk(rng, 128)
		if i%2 == 0 {
			raw = entries[i*11%len(entries)].Raw
		}
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = dist.NewQuery(raw, rep)
	}

	ws := NewWorkspace()
	for _, s := range indexes {
		want := make([][]Result, len(queries))
		for i, q := range queries {
			res, _, err := s.KNNWith(ws, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append([]Result(nil), res...)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			out, stats, err := BatchKNN(s, queries, 7, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				identicalResults(t, testLabel("batch", i, s.NumShards(), workers), out[i], want[i])
				if s.NumShards() > 1 && stats[i].Measured == 0 {
					t.Fatalf("shards=%d query %d: zero measured stats", s.NumShards(), i)
				}
			}
		}
	}
}

// TestShardedBatchKNNCanceled checks the cancellation contract over a sharded
// index: a canceled batch reports ErrBatchCanceled.
func TestShardedBatchKNNCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 60, 128, 12)
	s := newShardedDBCH(t, 4)
	if err := s.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	queries := make([]dist.Query, 16)
	for i := range queries {
		raw := randWalk(rng, 128)
		rep, err := meth.Reduce(raw, 12)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = dist.NewQuery(raw, rep)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := BatchKNNContext(ctx, s, queries, 5, 2)
	if err == nil {
		t.Fatal("canceled sharded batch returned nil error")
	}
}

// TestShardedMutationsAndCompaction drives the write surface: routed
// inserts and deletes, per-shard compaction, and answer stability across a
// compaction cycle.
func TestShardedMutationsAndCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	meth := buildMethod(t, "SAPLA")
	entries := makeEntries(t, meth, rng, 150, 96, 12)
	s := newShardedDBCH(t, 4)
	for _, e := range entries {
		if err := s.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 150 {
		t.Fatalf("Len = %d, want 150", s.Len())
	}
	if s.Epoch() != 150 {
		t.Fatalf("Epoch = %d, want 150 after 150 routed inserts", s.Epoch())
	}

	// Delete every third entry; routed deletes must land on the owning shard.
	deleted := map[int]bool{}
	for i := 0; i < len(entries); i += 3 {
		if !s.Delete(entries[i].ID) {
			t.Fatalf("Delete(%d) = false for present id", entries[i].ID)
		}
		deleted[entries[i].ID] = true
	}
	if s.Delete(entries[0].ID) {
		t.Fatal("second Delete of same id returned true")
	}
	if want := 150 - len(deleted); s.Len() != want {
		t.Fatalf("Len after deletes = %d, want %d", s.Len(), want)
	}

	q := dist.NewQuery(entries[1].Raw, entries[1].Rep)
	before, _, err := s.KNN(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.Fragmentation() <= 0 {
		t.Fatalf("Fragmentation = %g after deletes, want > 0", s.Fragmentation())
	}
	if n := s.Compact(0.01); n == 0 {
		t.Fatal("Compact rebuilt no shards despite fragmentation")
	}
	after, _, err := s.KNN(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "compact", after, before)
	for _, r := range after {
		if deleted[r.Entry.ID] {
			t.Fatalf("deleted id %d surfaced in k-NN answer", r.Entry.ID)
		}
	}
}

func TestNewShardedRejectsBadCount(t *testing.T) {
	if _, err := NewSharded(0, func(int) (Index, error) { return NewLinearScan(), nil }); err == nil {
		t.Fatal("NewSharded(0) succeeded")
	}
}
