package server

import (
	"context"
	"math/rand"
	"testing"

	"sapla/internal/wal"
)

// TestServerShardedSnapshotPerShard checks that snapshotNow rotates and
// snapshots every shard stream: after the sweep, each shard's recovery
// loads from its snapshot with nothing left to replay.
func TestServerShardedSnapshotPerShard(t *testing.T) {
	mem := wal.NewMemFS()
	s, hs := newTestServer(t, durableShardedConfig(mem, 1, 4))
	client := hs.Client()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 20; i++ {
		ingestOne(t, client, hs.URL, nil, randWalk(rng, 32))
	}
	if err := s.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	if got := s.metrics.snapshots.Value(); got != 4 {
		t.Fatalf("snapshot sweep installed %d snapshots, want 4 (one per shard)", got)
	}
	hs.Close()
	mem.Crash(nil)

	rec, _ := newTestServer(t, durableShardedConfig(mem, 1, 4))
	info, _, ok := rec.Recovery()
	if !ok {
		t.Fatal("no recovery info")
	}
	if info.SnapshotSeries != 20 || info.Replayed != 0 {
		t.Fatalf("recovery info %+v: want 20 snapshot series, 0 replayed", info)
	}
	if err := rec.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
