package wal

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sapla/internal/index"
)

// closeShards closes every store in a recovery slice.
func closeShards(t *testing.T, recs []ShardRecovery) {
	t.Helper()
	for _, r := range recs {
		if err := r.Store.Close(); err != nil {
			t.Fatalf("close shard store: %v", err)
		}
	}
}

func TestNamespaceFSIsolation(t *testing.T) {
	mem := NewMemFS()
	fs0 := NewNamespaceFS(mem, shardNamespace(0))
	fs1 := NewNamespaceFS(mem, shardNamespace(1))
	fs2 := NewNamespaceFS(mem, shardNamespace(2))
	if fs0 != FS(mem) {
		t.Fatal("shard 0 namespace must be the inner FS itself (legacy layout)")
	}

	write := func(fsys FS, name, content string) {
		t.Helper()
		f, err := fsys.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(content)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(fs0, "wal-0000000000000001.log", "zero")
	write(fs1, "wal-0000000000000001.log", "one")
	write(fs2, "wal-0000000000000001.log", "two")

	// Same logical name, three physical files, each namespace reads its own.
	for i, fsys := range []FS{fs0, fs1, fs2} {
		data, err := fsys.ReadFile("wal-0000000000000001.log")
		if err != nil {
			t.Fatalf("shard %d read: %v", i, err)
		}
		want := []string{"zero", "one", "two"}[i]
		if string(data) != want {
			t.Fatalf("shard %d read %q, want %q", i, data, want)
		}
		names, err := fsys.List()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if len(names) != 1 || names[0] != "wal-0000000000000001.log" {
				t.Fatalf("shard %d List = %v, want its single stripped name", i, names)
			}
		}
	}
	// Shard 0's view is the raw directory: it sees the prefixed names as-is,
	// and parseSeq rejects them, so cross-shard GC can never fire.
	names, err := fs0.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("raw List = %v, want 3 names", names)
	}
	for _, name := range names {
		if name == "wal-0000000000000001.log" {
			continue
		}
		if _, ok := parseSeq(name, segPrefix, segSuffix); ok {
			t.Fatalf("prefixed name %q parsed as a shard-0 segment", name)
		}
	}

	// Rename and Remove stay inside the namespace.
	if err := fs1.Rename("wal-0000000000000001.log", "renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.ReadFile("renamed"); err == nil {
		t.Fatal("shard 2 sees shard 1's renamed file")
	}
	if err := fs2.Remove("wal-0000000000000001.log"); err != nil {
		t.Fatal(err)
	}
	if data, err := fs1.ReadFile("renamed"); err != nil || string(data) != "one" {
		t.Fatalf("shard 1 lost its file to shard 2's Remove: %v %q", err, data)
	}
}

func TestOpenShardedFreshWritesManifest(t *testing.T) {
	mem := NewMemFS()
	recs, err := OpenSharded(mem, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("fresh OpenSharded(4) returned %d shards", len(recs))
	}
	for i, r := range recs {
		if r.Store == nil {
			t.Fatalf("shard %d store is nil", i)
		}
		if len(r.Series) != 0 || r.Info.Replayed != 0 {
			t.Fatalf("shard %d fresh recovery not empty: %+v", i, r.Info)
		}
	}
	count, found, current, err := readManifest(mem)
	if err != nil || !found || !current || count != 4 {
		t.Fatalf("manifest after fresh open: count=%d found=%v current=%v err=%v", count, found, current, err)
	}
	closeShards(t, recs)
}

// TestOpenShardedManifestPinsCount is the routing-safety property: once a
// directory has recorded its shard count, reopening with any other -shards
// value must yield the recorded count, or replay would route records to the
// wrong streams.
func TestOpenShardedManifestPinsCount(t *testing.T) {
	mem := NewMemFS()
	recs, err := OpenSharded(mem, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Spread series across the shards by the production routing hash.
	rng := rand.New(rand.NewSource(31))
	ref := map[int64][]float64{}
	for id := int64(0); id < 40; id++ {
		v := walk(rng, 8)
		si := index.ShardOf(int(id), len(recs))
		if err := recs[si].Store.AppendIngest(id, v); err != nil {
			t.Fatal(err)
		}
		ref[id] = v
	}
	closeShards(t, recs)

	for _, requested := range []int{1, 7, 4} {
		recs, err := OpenSharded(mem, requested, Options{})
		if err != nil {
			t.Fatalf("reopen with %d requested: %v", requested, err)
		}
		if len(recs) != 4 {
			t.Fatalf("reopen with %d requested returned %d shards, manifest pins 4", requested, len(recs))
		}
		got := map[int64][]float64{}
		for si, r := range recs {
			for _, s := range r.Series {
				if want := index.ShardOf(int(s.ID), 4); want != si {
					t.Fatalf("series %d recovered on shard %d, routed to %d", s.ID, si, want)
				}
				got[s.ID] = s.Values
			}
		}
		if !equalState(toSorted(got), ref) {
			t.Fatalf("reopen with %d requested recovered wrong state", requested)
		}
		closeShards(t, recs)
	}
}

// TestOpenShardedAdoptsLegacyDir covers the upgrade path: a directory
// written by the pre-sharding store (unprefixed files, no manifest) opens as
// exactly one shard no matter what count is requested, and the adoption is
// then pinned.
func TestOpenShardedAdoptsLegacyDir(t *testing.T) {
	mem := NewMemFS()
	st, _, _, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	ref := map[int64][]float64{}
	for id := int64(0); id < 10; id++ {
		v := walk(rng, 6)
		if err := st.AppendIngest(id, v); err != nil {
			t.Fatal(err)
		}
		ref[id] = v
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := OpenSharded(mem, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("legacy dir opened as %d shards, want 1", len(recs))
	}
	got := map[int64][]float64{}
	for _, s := range recs[0].Series {
		got[s.ID] = s.Values
	}
	if !equalState(toSorted(got), ref) {
		t.Fatal("legacy recovery lost series")
	}
	closeShards(t, recs)

	count, found, current, err := readManifest(mem)
	if err != nil || !found || !current || count != 1 {
		t.Fatalf("legacy adoption not pinned: count=%d found=%v current=%v err=%v", count, found, current, err)
	}
}

func TestOpenShardedCorruptManifest(t *testing.T) {
	for _, junk := range []string{"", "garbage", manifestMagic + " count=0\n", manifestMagic + " count=9999999\n", manifestMagic + " count=x\n"} {
		mem := NewMemFS()
		f, err := mem.Create(manifestName)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(junk)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSharded(mem, 2, Options{}); !errors.Is(err, ErrCorruptManifest) {
			t.Fatalf("manifest %q: err = %v, want ErrCorruptManifest", junk, err)
		}
	}
}

func TestOpenShardedRejectsAbsurdCount(t *testing.T) {
	if _, err := OpenSharded(NewMemFS(), maxShards+1, Options{}); err == nil {
		t.Fatal("OpenSharded accepted a shard count beyond the namespace width")
	}
	recs, err := OpenSharded(NewMemFS(), 0, Options{})
	if err != nil || len(recs) != 1 {
		t.Fatalf("OpenSharded(0) = %d shards, %v; want clamp to 1", len(recs), err)
	}
	closeShards(t, recs)
}

// TestShardedCrashRecoveryProperty extends the single-stream crash property
// to the multiplexed layout at shard counts 1, 4 and 7: random mutations are
// routed to their shard's stream by the production hash, the whole directory
// crashes at once with random torn tails, and after a parallel OpenSharded
// every shard independently satisfies prefix consistency — its recovered
// state matches some prefix of its own op sequence, no shorter than its last
// fsync. A shard count of 1 doubles as a check that the sharded path is
// byte-compatible with the legacy layout under crashes.
func TestShardedCrashRecoveryProperty(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for _, shards := range []int{1, 4, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(5000 + 100*shards + trial)))
				syncEvery := 1 + (trial%2)*(1+rng.Intn(4)) // 1, or 2..5
				mem := NewMemFS()
				recs, err := OpenSharded(mem, shards, Options{SyncEvery: syncEvery})
				if err != nil {
					t.Fatalf("trial %d: open: %v", trial, err)
				}
				if len(recs) != shards {
					t.Fatalf("trial %d: %d shards, want %d", trial, len(recs), shards)
				}

				ops := make([][]crashOp, shards) // per-shard acknowledged mutations
				synced := make([]int, shards)    // per-shard ops covered by the last fsync
				nextID := int64(0)
				nOps := 10 + rng.Intn(80)
				for i := 0; i < nOps; i++ {
					switch r := rng.Intn(20); {
					case r < 12: // ingest a fresh series on its home shard
						v := walk(rng, 4+rng.Intn(16))
						si := index.ShardOf(int(nextID), shards)
						if err := recs[si].Store.AppendIngest(nextID, v); err != nil {
							t.Fatalf("trial %d op %d: ingest: %v", trial, i, err)
						}
						ops[si] = append(ops[si], crashOp{id: nextID, values: v})
						nextID++
					case r < 15: // overwrite an existing id (same home shard)
						if nextID == 0 {
							continue
						}
						id := rng.Int63n(nextID)
						v := walk(rng, 4+rng.Intn(16))
						si := index.ShardOf(int(id), shards)
						if err := recs[si].Store.AppendIngest(id, v); err != nil {
							t.Fatalf("trial %d op %d: re-ingest: %v", trial, i, err)
						}
						ops[si] = append(ops[si], crashOp{id: id, values: v})
					case r < 18: // delete, routed to the id's home shard
						if nextID == 0 {
							continue
						}
						id := rng.Int63n(nextID + 2)
						si := index.ShardOf(int(id), shards)
						if err := recs[si].Store.AppendDelete(id); err != nil {
							t.Fatalf("trial %d op %d: delete: %v", trial, i, err)
						}
						ops[si] = append(ops[si], crashOp{del: true, id: id})
					case r < 19: // flush one random shard's group commit
						si := rng.Intn(shards)
						if err := recs[si].Store.Sync(); err != nil {
							t.Fatalf("trial %d op %d: sync: %v", trial, i, err)
						}
						synced[si] = len(ops[si])
					default: // rotate + snapshot one random shard
						si := rng.Intn(shards)
						sealed, err := recs[si].Store.Rotate()
						if err != nil {
							t.Fatalf("trial %d op %d: rotate: %v", trial, i, err)
						}
						synced[si] = len(ops[si])
						if err := recs[si].Store.WriteSnapshot(sealed, toSorted(stateAfter(ops[si], len(ops[si])))); err != nil {
							t.Fatalf("trial %d op %d: snapshot: %v", trial, i, err)
						}
					}
					for si := range recs {
						if recs[si].Store.Unsynced() == 0 {
							synced[si] = len(ops[si])
						}
					}
				}

				// One crash takes down every stream at once, each with its own
				// random torn tail.
				mem.Crash(func(name string, pending int) int { return rng.Intn(pending + 1) })

				recovered, err := OpenSharded(mem, shards, Options{})
				if err != nil {
					t.Fatalf("trial %d: recovery: %v", trial, err)
				}
				if len(recovered) != shards {
					t.Fatalf("trial %d: recovered %d shards, want %d", trial, len(recovered), shards)
				}
				for si := range recovered {
					// Recovered series must all belong to this shard: a
					// record replaying into a foreign stream would be the
					// namespace leaking.
					for _, s := range recovered[si].Series {
						if home := index.ShardOf(int(s.ID), shards); home != si {
							t.Fatalf("trial %d: series %d recovered on shard %d, home is %d", trial, s.ID, si, home)
						}
					}
					match := -1
					for p := len(ops[si]); p >= synced[si]; p-- {
						if equalState(recovered[si].Series, stateAfter(ops[si], p)) {
							match = p
							break
						}
					}
					if match < 0 {
						t.Fatalf("trial %d shard %d (syncEvery=%d): recovered state matches no prefix in [%d, %d] of %d ops (info %+v)",
							trial, si, syncEvery, synced[si], len(ops[si]), len(ops[si]), recovered[si].Info)
					}
					if syncEvery == 1 && match != len(ops[si]) {
						t.Fatalf("trial %d shard %d: SyncEvery=1 lost acknowledged ops: prefix %d of %d",
							trial, si, match, len(ops[si]))
					}
				}
				closeShards(t, recovered)
			}
		})
	}
}
