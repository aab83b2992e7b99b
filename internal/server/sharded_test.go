package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"sapla/internal/ts"
	"sapla/internal/wal"
)

// TestServerShardedEndToEnd drives the full HTTP surface of a multi-shard
// durable server — single ingests, a cross-shard batch ingest, routed
// deletes — and requires every k-NN answer to be byte-identical to a
// single-shard in-memory reference over the same series.
func TestServerShardedEndToEnd(t *testing.T) {
	const n = 64
	mem := wal.NewMemFS()
	s, hs := newTestServer(t, durableShardedConfig(mem, 1, 4))
	client := hs.Client()
	rng := rand.New(rand.NewSource(41))

	_, href := newTestServer(t, Config{Workers: 2})
	ref := href.Client()

	live := map[int]ts.Series{}
	ingestBoth := func(id *int, v ts.Series) int {
		resp := ingestOne(t, client, hs.URL, id, v)
		idc := resp.ID
		ingestOne(t, ref, href.URL, &idc, v)
		live[resp.ID] = v
		return resp.ID
	}

	for i := 0; i < 25; i++ {
		ingestBoth(nil, randWalk(rng, n))
	}

	// Cross-shard batch: 30 series in one request must split across all 4
	// shards and still commit as one acknowledged batch.
	items := make([]map[string]any, 30)
	vals := make([]ts.Series, 30)
	for i := range items {
		vals[i] = randWalk(rng, n)
		items[i] = map[string]any{"values": vals[i]}
	}
	var bresp ingestBatchResponse
	if code := doJSON(t, client, "POST", hs.URL+"/v1/ingest/batch",
		map[string]any{"series": items}, &bresp); code != http.StatusCreated {
		t.Fatalf("batch ingest: status %d", code)
	}
	for i, id := range bresp.IDs {
		idc := id
		ingestOne(t, ref, href.URL, &idc, vals[i])
		live[id] = vals[i]
	}
	touched := 0
	for i := 0; i < len(s.shards); i++ {
		if s.idx.Shard(i).Len() > 0 {
			touched++
		}
	}
	if touched != 4 {
		t.Fatalf("entries landed on %d of 4 shards; routing is not spreading", touched)
	}

	// Routed deletes: every other batch-assigned ID.
	for i := 0; i < len(bresp.IDs); i += 2 {
		id := bresp.IDs[i]
		if code := doJSON(t, client, "DELETE",
			fmt.Sprintf("%s/v1/series/%d", hs.URL, id), nil, nil); code != http.StatusOK {
			t.Fatalf("delete %d: status %d", id, code)
		}
		if code := doJSON(t, ref, "DELETE",
			fmt.Sprintf("%s/v1/series/%d", href.URL, id), nil, nil); code != http.StatusOK {
			t.Fatalf("reference delete %d: status %d", id, code)
		}
		delete(live, id)
	}

	checkIdentical := func(stage string) {
		t.Helper()
		for qi := 0; qi < 6; qi++ {
			q := randWalk(rng, n)
			got := knnIDs(t, client, hs.URL, q, 10)
			want := knnIDs(t, ref, href.URL, q, 10)
			if len(got) != len(want) {
				t.Fatalf("%s q%d: %d results, want %d", stage, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID ||
					math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("%s q%d result %d: got %+v, want %+v", stage, qi, i, got[i], want[i])
				}
			}
		}
	}
	checkIdentical("after deletes")

	// Batch k-NN fans out over the queries, each a whole scatter-gather;
	// answers must match the reference too.
	queries := make([]map[string]any, 5)
	for i := range queries {
		queries[i] = map[string]any{"values": randWalk(rng, n)}
	}
	var kb, kbRef batchResponse
	if code := doJSON(t, client, "POST", hs.URL+"/v1/knn/batch",
		map[string]any{"k": 7, "queries": queries}, &kb); code != http.StatusOK {
		t.Fatalf("batch knn: status %d", code)
	}
	if code := doJSON(t, ref, "POST", href.URL+"/v1/knn/batch",
		map[string]any{"k": 7, "queries": queries}, &kbRef); code != http.StatusOK {
		t.Fatalf("reference batch knn: status %d", code)
	}
	for i := range kb.Answers {
		for j := range kb.Answers[i].Results {
			g, w := kb.Answers[i].Results[j], kbRef.Answers[i].Results[j]
			if g.ID != w.ID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
				t.Fatalf("batch answer %d result %d: got %+v, want %+v", i, j, g, w)
			}
		}
	}

	// Observability: /readyz and /metrics expose the shard layout.
	var ready map[string]any
	if code := doJSON(t, client, "GET", hs.URL+"/readyz", nil, &ready); code != http.StatusOK {
		t.Fatalf("/readyz: %d", code)
	}
	if ready["shards"] != float64(4) {
		t.Fatalf("/readyz shards = %v, want 4", ready["shards"])
	}
	var met struct {
		Index struct {
			Shards int `json:"shards"`
			Size   int `json:"size"`
		} `json:"index"`
		Shards []struct {
			Size        int     `json:"size"`
			Epoch       float64 `json:"epoch"`
			WALUnsynced *int    `json:"wal_unsynced"`
			SnapshotSeq *int    `json:"snapshot_seq"`
		} `json:"shards"`
		Durability struct {
			WALStreams int `json:"wal_streams"`
		} `json:"durability"`
	}
	if code := doJSON(t, client, "GET", hs.URL+"/metrics", nil, &met); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if met.Index.Shards != 4 || len(met.Shards) != 4 || met.Durability.WALStreams != 4 {
		t.Fatalf("metrics shard layout: index.shards=%d shards=%d wal_streams=%d",
			met.Index.Shards, len(met.Shards), met.Durability.WALStreams)
	}
	sizeSum := 0
	for i, sd := range met.Shards {
		sizeSum += sd.Size
		if sd.WALUnsynced == nil || sd.SnapshotSeq == nil {
			t.Fatalf("shard %d metrics missing WAL fields: %+v", i, sd)
		}
	}
	if sizeSum != met.Index.Size || sizeSum != len(live) {
		t.Fatalf("per-shard sizes sum to %d, index size %d, live %d", sizeSum, met.Index.Size, len(live))
	}

	// Clean shutdown flushes all four WAL streams; restart recovers them in
	// parallel and answers stay byte-identical.
	hs.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	rec, hrec := newTestServer(t, durableShardedConfig(mem, 1, 4))
	if rec.idx.Len() != len(live) {
		t.Fatalf("recovered %d series, want %d", rec.idx.Len(), len(live))
	}
	client = hrec.Client()
	hs = hrec
	checkIdentical("after restart")
}

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
