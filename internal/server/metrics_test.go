package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"sapla/internal/wal"
)

// flattenJSON lists every leaf of a decoded JSON document under its key path
// ("a.b", "a[0].b").
func flattenJSON(prefix string, v any, out map[string]any) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenJSON(p, c, out)
		}
	case []any:
		for i, c := range v {
			flattenJSON(fmt.Sprintf("%s[%d]", prefix, i), c, out)
		}
	default:
		out[prefix] = v
	}
}

// histogramLeaves are the key paths of one latency histogram on /metrics,
// every one but count a wall-clock reading.
var histogramLeaves = []string{"mean_ms", "p50_ms", "p95_ms", "p99_ms",
	"buckets.le_50us", "buckets.le_100us", "buckets.le_250us", "buckets.le_500us",
	"buckets.le_1ms", "buckets.le_2ms", "buckets.le_5ms", "buckets.le_10ms",
	"buckets.le_25ms", "buckets.le_50ms", "buckets.le_100ms", "buckets.le_250ms",
	"buckets.le_500ms", "buckets.le_1000ms", "buckets.+inf"}

// TestMetricsDocument runs a fixed script on a durable 3-shard server and
// holds the /metrics document to it: every key path, and the value of every
// one that is not a wall-clock reading. A request, error or shed count is
// listed only once it is non-zero; every endpoint has a latency histogram.
func TestMetricsDocument(t *testing.T) {
	const n = 32
	mem := wal.NewMemFS()
	cfg := durableShardedConfig(mem, 1, 3)
	cfg.MaxInflightSearch = 1
	s, hs := newTestServer(t, cfg)
	client := hs.Client()
	rng := rand.New(rand.NewSource(55))
	post := func(path string, body any, want int) {
		t.Helper()
		if code := doJSON(t, client, "POST", hs.URL+path, body, nil); code != want {
			t.Fatalf("POST %s: status %d, want %d", path, code, want)
		}
	}

	for id := 1; id <= 4; id++ {
		v := randWalk(rng, n)
		if id%2 == 0 {
			v = wireSeries(rng, n)
		}
		ingestOne(t, client, hs.URL, &id, v)
	}
	post("/v1/ingest/batch", map[string]any{"series": []map[string]any{
		{"id": 10, "values": wireSeries(rng, n)},
		{"id": 11, "values": randWalk(rng, n)},
	}}, http.StatusCreated)
	post("/v1/knn", map[string]any{"values": randWalk(rng, n), "k": 3}, http.StatusOK)
	post("/v1/knn", map[string]any{"values": randWalk(rng, n-1), "k": 3}, http.StatusBadRequest)
	post("/v1/knn/batch", map[string]any{"k": 2, "queries": []map[string]any{
		{"values": randWalk(rng, n)}, {"values": randWalk(rng, n)},
	}}, http.StatusOK)
	post("/v1/range", map[string]any{"values": randWalk(rng, n), "radius": 1e9}, http.StatusOK)
	if code := doJSON(t, client, "DELETE", hs.URL+"/v1/series/3", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	s.searchSem <- struct{}{} // hold the only search slot: the next k-NN sheds
	post("/v1/knn", map[string]any{"values": randWalk(rng, n), "k": 3}, http.StatusTooManyRequests)
	<-s.searchSem
	if err := s.snapshotNow(); err != nil {
		t.Fatal(err)
	}

	var doc map[string]any
	if code := doJSON(t, client, "GET", hs.URL+"/metrics", nil, &doc); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	got := map[string]any{}
	flattenJSON("", doc, got)

	want := map[string]any{
		"requests.ingest":       4.0,
		"requests.ingest_batch": 1.0,
		"requests.knn":          3.0,
		"requests.knn_batch":    1.0,
		"requests.range":        1.0,
		"requests.delete":       1.0,
		"errors.knn":            2.0,
		"shed.knn":              1.0,
		"decode.fast":           9.0,
		"decode.fallback":       0.0,

		"search.queries":       4.0,
		"search.measured":      19.0,
		"search.filtered":      24.0,
		"search.nodes_visited": 0.0,
		"search.candidates":    24.0, // 6 live series, 4 queries
		"search.pruning_ratio": 19.0 / 24,

		"index.size":          5.0,
		"index.epoch":         7.0,
		"index.shards":        3.0,
		"index.method":        "SAPLA",
		"index.coeff_budget":  12.0,
		"index.series_length": float64(n),
		"index.ingested":      6.0,
		"index.deleted":       1.0,

		"durability.wal_streams":         3.0,
		"durability.wal_unsynced":        0.0,
		"durability.wal_records_decimal": 3.0,
		"durability.wal_records_f64":     3.0,
		"durability.snapshot_seq":        1.0,
		"durability.snapshots":           3.0,
		"durability.snapshot_errors":     0.0,
		"durability.recovery_replayed":   0.0,
		"durability.recovery_snapshot":   0.0,
		"durability.recovery_torn_bytes": 0.0,
		"durability.sync_every":          1.0,
	}
	timing := map[string]bool{"uptime_seconds": true, "durability.recovery_duration_ms": true}
	hist := func(prefix string, count float64) {
		want[prefix+".count"] = count
		for _, leaf := range histogramLeaves {
			timing[prefix+"."+leaf] = true
		}
	}
	for _, ep := range []string{"ingest", "ingest_batch", "knn", "knn_batch", "range", "delete"} {
		hist("latency."+ep, want["requests."+ep].(float64))
	}
	hist("durability.wal_fsync", 7)
	hist("durability.snapshot_write", 3)
	for i, sd := range []struct{ size, epoch float64 }{{1, 3}, {3, 3}, {1, 1}} {
		for k, v := range map[string]any{"size": sd.size, "epoch": sd.epoch, "wal_unsynced": 0.0, "snapshot_seq": 1.0, "snapshots": 1.0} {
			want[fmt.Sprintf("shards[%d].%s", i, k)] = v
		}
	}

	var paths []string
	for p := range got {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		if w, ok := want[p]; ok {
			if got[p] != w {
				t.Errorf("/metrics %s = %v, want %v", p, got[p], w)
			}
		} else if !timing[p] {
			t.Errorf("/metrics has %s = %v, not in the expected document", p, got[p])
		}
	}
	for p := range want {
		if _, ok := got[p]; !ok {
			t.Errorf("/metrics lacks %s", p)
		}
	}
	for p := range timing {
		if _, ok := got[p]; !ok {
			t.Errorf("/metrics lacks %s", p)
		}
	}
}
