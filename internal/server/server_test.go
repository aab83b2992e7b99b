package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sapla/internal/index"
	"sapla/internal/ts"
	"sapla/internal/wal"
)

// newTestServer returns a Server with tight limits and its base URL.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// randWalk builds a deterministic random-walk series.
func randWalk(rng *rand.Rand, n int) ts.Series {
	s := make(ts.Series, n)
	var v float64
	for i := range s {
		v += rng.NormFloat64()
		s[i] = v
	}
	return s
}

// doJSON posts body to url and decodes the response into out (if non-nil),
// returning the status code.
func doJSON(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && err != io.EOF {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func ingestOne(t *testing.T, client *http.Client, base string, id *int, values ts.Series) ingestResponse {
	t.Helper()
	var resp ingestResponse
	body := map[string]any{"values": values}
	if id != nil {
		body["id"] = *id
	}
	if code := doJSON(t, client, "POST", base+"/v1/ingest", body, &resp); code != http.StatusCreated {
		t.Fatalf("ingest returned %d", code)
	}
	return resp
}

// ingestEndpoints are the two ways to ingest one series: POST /v1/ingest, and
// POST /v1/ingest/batch with a batch of one.
var ingestEndpoints = []struct {
	path string
	body func(id int, values ts.Series) any
}{
	{"/v1/ingest", func(id int, values ts.Series) any {
		return map[string]any{"id": id, "values": values}
	}},
	{"/v1/ingest/batch", func(id int, values ts.Series) any {
		return map[string]any{"series": []map[string]any{{"id": id, "values": values}}}
	}},
}

// ingestOutcome decodes what both ingest endpoints' answers share, and the
// error body.
type ingestOutcome struct {
	IndexSize int    `json:"index_size"`
	Epoch     uint64 `json:"epoch"`
	Error     string `json:"error"`
}

func TestServerEndToEnd(t *testing.T) {
	const n, count = 64, 40
	_, hs := newTestServer(t, Config{M: 12})
	client := hs.Client()
	rng := rand.New(rand.NewSource(5))

	series := make([]ts.Series, count)
	for i := range series {
		series[i] = randWalk(rng, n)
		resp := ingestOne(t, client, hs.URL, nil, series[i])
		if resp.ID != i {
			t.Fatalf("auto id = %d, want %d", resp.ID, i)
		}
	}

	// Self-query: the ingested series is its own nearest neighbour.
	var knn knnResponse
	if code := doJSON(t, client, "POST", hs.URL+"/v1/knn",
		map[string]any{"values": series[3], "k": 5}, &knn); code != http.StatusOK {
		t.Fatalf("knn returned %d", code)
	}
	if len(knn.Results) != 5 {
		t.Fatalf("knn returned %d results, want 5", len(knn.Results))
	}
	if knn.Results[0].ID != 3 || knn.Results[0].Dist != 0 {
		t.Fatalf("self query top hit = %+v, want id 3 dist 0", knn.Results[0])
	}
	// Served from the flat tier: every live series is filtered, no tree node
	// is visited, and the filter spares most of them the exact distance.
	if knn.Stats.Filtered != count || knn.Stats.NodesVisited != 0 {
		t.Fatalf("knn stats %+v, want %d filtered and no nodes", knn.Stats, count)
	}
	if knn.Stats.Measured < 5 || knn.Stats.Measured >= count {
		t.Fatalf("knn measured %d of %d series", knn.Stats.Measured, count)
	}

	// Batch: every query's own series leads its answer slot.
	batch := map[string]any{"k": 3, "queries": []map[string]any{
		{"values": series[0]}, {"values": series[7]}, {"values": series[19]},
	}}
	var bresp batchResponse
	if code := doJSON(t, client, "POST", hs.URL+"/v1/knn/batch", batch, &bresp); code != http.StatusOK {
		t.Fatalf("batch returned %d", code)
	}
	wantTop := []int{0, 7, 19}
	if len(bresp.Answers) != 3 {
		t.Fatalf("batch returned %d answers", len(bresp.Answers))
	}
	for i, ans := range bresp.Answers {
		if len(ans.Results) != 3 || ans.Results[0].ID != wantTop[i] {
			t.Fatalf("batch answer %d: %+v, want top id %d", i, ans.Results, wantTop[i])
		}
	}

	// Range with the radius of the 3rd neighbour returns at least 3 hits.
	var rresp knnResponse
	if code := doJSON(t, client, "POST", hs.URL+"/v1/range",
		map[string]any{"values": series[3], "radius": knn.Results[2].Dist}, &rresp); code != http.StatusOK {
		t.Fatalf("range returned %d", code)
	}
	if len(rresp.Results) < 3 {
		t.Fatalf("range returned %d results, want >= 3", len(rresp.Results))
	}

	// Delete, then confirm the id is gone from k-NN answers.
	var dresp deleteResponse
	if code := doJSON(t, client, "DELETE", hs.URL+"/v1/series/3", nil, &dresp); code != http.StatusOK {
		t.Fatalf("delete returned %d", code)
	}
	if !dresp.Deleted || dresp.IndexSize != count-1 {
		t.Fatalf("delete response %+v", dresp)
	}
	if code := doJSON(t, client, "DELETE", hs.URL+"/v1/series/3", nil, nil); code != http.StatusNotFound {
		t.Fatalf("second delete returned %d, want 404", code)
	}
	if code := doJSON(t, client, "POST", hs.URL+"/v1/knn",
		map[string]any{"values": series[3], "k": 5}, &knn); code != http.StatusOK {
		t.Fatalf("knn after delete returned %d", code)
	}
	for _, r := range knn.Results {
		if r.ID == 3 {
			t.Fatal("deleted id 3 still appears in k-NN results")
		}
	}

	// Health and metrics.
	var health map[string]any
	if code := doJSON(t, client, "GET", hs.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz returned %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}
	var met struct {
		Requests map[string]int64 `json:"requests"`
		Search   struct {
			Queries      int64   `json:"queries"`
			Measured     int64   `json:"measured"`
			PruningRatio float64 `json:"pruning_ratio"`
		} `json:"search"`
		Index struct {
			Size     int64 `json:"size"`
			Ingested int64 `json:"ingested"`
			Deleted  int64 `json:"deleted"`
			// Gone with the tree, COW/EBR and compaction.
			Tree        any `json:"tree"`
			Compactions any `json:"compactions"`
			ReclaimLag  any `json:"reclaim_lag_slots"`
		} `json:"index"`
		Latency map[string]histSnapshot `json:"latency"`
	}
	if code := doJSON(t, client, "GET", hs.URL+"/metrics", nil, &met); code != http.StatusOK {
		t.Fatalf("metrics returned %d", code)
	}
	if met.Requests["ingest"] != count {
		t.Fatalf("metrics ingest count = %d, want %d", met.Requests["ingest"], count)
	}
	if met.Search.Queries != 6 { // 2 knn + 3 batch + 1 range
		t.Fatalf("metrics queries = %d, want 6", met.Search.Queries)
	}
	if met.Search.PruningRatio <= 0 || met.Search.PruningRatio > 1 {
		t.Fatalf("pruning ratio = %g", met.Search.PruningRatio)
	}
	if met.Index.Size != count-1 || met.Index.Ingested != count || met.Index.Deleted != 1 {
		t.Fatalf("metrics index = %+v", met.Index)
	}
	if met.Index.Tree != nil || met.Index.Compactions != nil || met.Index.ReclaimLag != nil {
		t.Fatalf("metrics still report tree maintenance: %+v", met.Index)
	}
	if met.Latency["knn"].Count != 2 {
		t.Fatalf("knn latency count = %d, want 2", met.Latency["knn"].Count)
	}

	// pprof index is mounted.
	resp, err := client.Get(hs.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof returned %d", resp.StatusCode)
	}
}

func TestServerValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{M: 12, MaxK: 8, MaxBatch: 2, MaxBodyBytes: 1 << 16})
	client := hs.Client()
	rng := rand.New(rand.NewSource(6))
	base := randWalk(rng, 64)
	id0 := 0
	ingestOne(t, client, hs.URL, &id0, base)

	cases := []struct {
		name, method, path string
		body               any
		want               int
	}{
		{"bad json", "POST", "/v1/ingest", nil, http.StatusBadRequest},
		{"empty values", "POST", "/v1/ingest", map[string]any{"values": []float64{}}, http.StatusBadRequest},
		{"length mismatch", "POST", "/v1/ingest", map[string]any{"values": randWalk(rng, 32)}, http.StatusBadRequest},
		{"duplicate id", "POST", "/v1/ingest", map[string]any{"id": 0, "values": randWalk(rng, 64)}, http.StatusConflict},
		{"k zero", "POST", "/v1/knn", map[string]any{"values": base, "k": 0}, http.StatusBadRequest},
		{"k too large", "POST", "/v1/knn", map[string]any{"values": base, "k": 9}, http.StatusBadRequest},
		{"query length mismatch", "POST", "/v1/knn", map[string]any{"values": randWalk(rng, 16), "k": 1}, http.StatusBadRequest},
		{"negative radius", "POST", "/v1/range", map[string]any{"values": base, "radius": -1.0}, http.StatusBadRequest},
		{"batch too large", "POST", "/v1/knn/batch", map[string]any{"k": 1, "queries": []map[string]any{
			{"values": base}, {"values": base}, {"values": base}}}, http.StatusBadRequest},
		{"batch empty", "POST", "/v1/knn/batch", map[string]any{"k": 1, "queries": []map[string]any{}}, http.StatusBadRequest},
		{"delete non-numeric", "DELETE", "/v1/series/abc", nil, http.StatusBadRequest},
		{"delete missing", "DELETE", "/v1/series/404", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var code int
			if tc.name == "bad json" {
				resp, err := client.Post(hs.URL+tc.path, "application/json", strings.NewReader("{nope"))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				code = resp.StatusCode
			} else {
				code = doJSON(t, client, tc.method, hs.URL+tc.path, tc.body, nil)
			}
			if code != tc.want {
				t.Fatalf("got status %d, want %d", code, tc.want)
			}
		})
	}

	// Oversized body.
	big := bytes.Repeat([]byte("1,"), 1<<16)
	resp, err := client.Post(hs.URL+"/v1/ingest", "application/json",
		bytes.NewReader(append([]byte(`{"values":[`), append(big, []byte("1]}")...)...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body returned %d, want 413", resp.StatusCode)
	}

	// Unknown method is rejected at construction.
	if _, err := New(Config{Method: "NOPE"}); err == nil {
		t.Fatal("New accepted unknown method")
	}
}

// TestServerConcurrentTraffic hammers the HTTP surface with interleaved
// ingest, delete, k-NN, batch and range requests. Run under -race it is the
// check on the lock classes' guarded fields along the full serving path: the
// shards' flat tiers (written under shardState.mu and the ConcurrentIndex
// lock, searched under its shared lock), and bookMu's claims and series
// length, which every query reads through seriesLen while ingests write them.
func TestServerConcurrentTraffic(t *testing.T) {
	const n = 48
	s, hs := newTestServer(t, Config{M: 12, Workers: 2})
	client := hs.Client()
	rng := rand.New(rand.NewSource(77))

	// Core entries never deleted; churn ids cycle.
	for i := 0; i < 12; i++ {
		ingestOne(t, client, hs.URL, nil, randWalk(rng, n))
	}
	queries := make([]ts.Series, 4)
	for i := range queries {
		queries[i] = randWalk(rng, n)
	}
	churn := make([]ts.Series, 8)
	for i := range churn {
		churn[i] = randWalk(rng, n)
	}

	iters := 30
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	// Writer: ingest churn ids 1000.. then delete them, repeatedly.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for j, vals := range churn[w*4 : w*4+4] {
					id := 1000 + w*4 + j
					var resp ingestResponse
					code := doJSON(t, client, "POST", hs.URL+"/v1/ingest",
						map[string]any{"id": id, "values": vals}, &resp)
					if code != http.StatusCreated {
						t.Errorf("churn ingest %d returned %d", id, code)
						return
					}
				}
				for j := range churn[w*4 : w*4+4] {
					id := 1000 + w*4 + j
					if code := doJSON(t, client, "DELETE",
						fmt.Sprintf("%s/v1/series/%d", hs.URL, id), nil, nil); code != http.StatusOK {
						t.Errorf("churn delete %d returned %d", id, code)
						return
					}
				}
			}
		}(w)
	}
	// Readers: knn + batch + range; every answer must include all 12 core ids
	// when k covers the whole index.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(q ts.Series) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				var knn knnResponse
				if code := doJSON(t, client, "POST", hs.URL+"/v1/knn",
					map[string]any{"values": q, "k": 30}, &knn); code != http.StatusOK {
					t.Errorf("knn returned %d", code)
					return
				}
				core := 0
				for _, res := range knn.Results {
					if res.ID < 12 {
						core++
					}
				}
				if core != 12 {
					t.Errorf("knn saw %d of 12 core entries (inconsistent snapshot)", core)
					return
				}
				var bresp batchResponse
				if code := doJSON(t, client, "POST", hs.URL+"/v1/knn/batch",
					map[string]any{"k": 5, "queries": []map[string]any{{"values": q}}}, &bresp); code != http.StatusOK {
					t.Errorf("batch returned %d", code)
					return
				}
				if code := doJSON(t, client, "POST", hs.URL+"/v1/range",
					map[string]any{"values": q, "radius": 10.0}, nil); code != http.StatusOK {
					t.Errorf("range returned %d", code)
					return
				}
			}
		}(queries[r])
	}
	wg.Wait()

	if got := s.Index().Len(); got != 12 {
		t.Fatalf("final index size = %d, want 12", got)
	}
}

// TestServerRacingIngestsOfOneID posts one explicit ID from eight goroutines
// at once, half as single ingests and half in a two-ID batch whose other ID
// lives on another shard (at four shards): the claim and the shard's
// membership check together admit exactly one post per ID, every other post
// answers 409 with nothing applied, and no claim outlives its request.
func TestServerRacingIngestsOfOneID(t *testing.T) {
	const n, rounds, posters = 32, 10, 8
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, hs := newTestServer(t, Config{M: 12, Shards: shards, Workers: 2})
			client := hs.Client()
			rng := rand.New(rand.NewSource(int64(31 + shards)))
			size := 0
			for round := 0; round < rounds; round++ {
				id := 100 * round
				other := id + 1
				for shards > 1 && index.ShardOf(other, shards) == index.ShardOf(id, shards) {
					other++
				}
				paths := []string{"/v1/ingest", "/v1/ingest/batch"}
				bodies := make([][]byte, 2)
				for i, body := range []any{
					map[string]any{"id": id, "values": randWalk(rng, n)},
					map[string]any{"series": []map[string]any{
						{"id": id, "values": randWalk(rng, n)},
						{"id": other, "values": randWalk(rng, n)},
					}},
				} {
					var err error
					if bodies[i], err = json.Marshal(body); err != nil {
						t.Fatal(err)
					}
				}
				codes := make([]int, posters) // even posters send the single ingest
				var wg sync.WaitGroup
				for p := range codes {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						resp, err := client.Post(hs.URL+paths[p%2], "application/json", bytes.NewReader(bodies[p%2]))
						if err != nil {
							t.Error(err)
							return
						}
						resp.Body.Close()
						codes[p] = resp.StatusCode
					}(p)
				}
				wg.Wait()
				won := -1
				for p, code := range codes {
					switch {
					case code == http.StatusCreated && won < 0:
						won = p
					case code != http.StatusConflict:
						t.Fatalf("round %d: post %d answered %d (%v)", round, p, code, codes)
					}
				}
				if won < 0 {
					t.Fatalf("round %d: no post of id %d was admitted (%v)", round, id, codes)
				}
				size += 1 + won%2 // a winning batch also commits the other ID
				if got := s.Index().Len(); got != size {
					t.Fatalf("round %d: index size %d, want %d", round, got, size)
				}
				s.bookMu.Lock()
				left := len(s.claimed)
				s.bookMu.Unlock()
				if left != 0 {
					t.Fatalf("round %d: %d claims outlived their requests", round, left)
				}
			}
		})
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	s, err := New(Config{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()

	// The server answers, then drains cleanly.
	url := "http://" + l.Addr().String()
	var health map[string]any
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// Shutdown with no serve started is a no-op.
	s2, _ := New(Config{})
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
}

// TestRequestTimeout: a 1 ns budget fires the TimeoutHandler, proving the
// timeout path is wired. The request is a valid ingest whose WAL fsync a
// syncGate holds, so the handler cannot answer first: it either sees the
// deadline while reducing, and answers 503 itself, or waits at the gate until
// the TimeoutHandler has answered.
func TestRequestTimeout(t *testing.T) {
	cfg := durableConfig(newSyncGate(wal.NewMemFS()), 1)
	cfg.M, cfg.RequestTimeout = 12, time.Nanosecond
	_, hs := newTestServer(t, cfg)
	t.Cleanup(cfg.WALFS.(*syncGate).arm()) // runs before the server's Close, which waits for the handler
	body, err := json.Marshal(map[string]any{"values": randWalk(rand.New(rand.NewSource(5)), 32)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timeout request returned %d, want 503", resp.StatusCode)
	}
}

// TestServerIngestEdgeCases drives the tsio.ValidateSeries edge cases
// through the ingest handler: payloads over the body limit are rejected
// with 413 before any decoding, non-finite values cannot even be expressed
// in a JSON document, and a length-1 series passes validation but fails
// reduction with a client error rather than a 500. An explicit ID of
// math.MaxInt is refused with 400 on both ingest endpoints: it would wrap the
// auto-ID counter to math.MinInt, below committed IDs, and the next auto IDs
// would collide with them.
func TestServerIngestEdgeCases(t *testing.T) {
	_, hs := newTestServer(t, Config{M: 12, MaxBodyBytes: 4096})
	client := hs.Client()

	t.Run("oversized payload", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		big := map[string]any{"values": randWalk(rng, 4096)} // ~4096 numbers >> 4 KiB encoded
		var errResp errorResponse
		code := doJSON(t, client, "POST", hs.URL+"/v1/ingest", big, &errResp)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized ingest returned %d, want 413", code)
		}
		if !strings.Contains(errResp.Error, "exceeds 4096 bytes") {
			t.Errorf("413 body %q does not name the limit", errResp.Error)
		}
	})

	t.Run("non-finite values are not JSON", func(t *testing.T) {
		for _, body := range []string{
			`{"values":[NaN]}`,
			`{"values":[1,Infinity]}`,
			`{"values":[-Infinity,2]}`,
		} {
			resp, err := client.Post(hs.URL+"/v1/ingest", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("ingest of %s returned %d, want 400", body, resp.StatusCode)
			}
		}
	})

	t.Run("length-1 series", func(t *testing.T) {
		for _, ep := range ingestEndpoints {
			var got ingestOutcome
			code := doJSON(t, client, "POST", hs.URL+ep.path, ep.body(7, ts.Series{1}), &got)
			if code != http.StatusBadRequest {
				t.Fatalf("%s: length-1 ingest returned %d, want 400", ep.path, code)
			}
			if !strings.Contains(got.Error, "reduce:") {
				t.Errorf("%s: length-1 rejection %q should come from the reducer, not validation", ep.path, got.Error)
			}
		}
		// Nothing was applied: no entry, no epoch, no pinned length, no claim on
		// the ID.
		var health ingestOutcome
		doJSON(t, client, "GET", hs.URL+"/healthz", nil, &health)
		if health.IndexSize != 0 || health.Epoch != 0 {
			t.Fatalf("rejected ingests left index_size %d, epoch %d", health.IndexSize, health.Epoch)
		}
		id := 7
		ingestOne(t, client, hs.URL, &id, randWalk(rand.New(rand.NewSource(10)), 16))
	})

	t.Run("empty values object", func(t *testing.T) {
		code := doJSON(t, client, "POST", hs.URL+"/v1/ingest", map[string]any{"values": []float64{}}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("empty ingest returned %d, want 400", code)
		}
	})

	t.Run("id math.MaxInt", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		low := math.MinInt + 1
		ingestOne(t, client, hs.URL, &low, randWalk(rng, 16))
		for _, ep := range ingestEndpoints {
			var got ingestOutcome
			if code := doJSON(t, client, "POST", hs.URL+ep.path, ep.body(math.MaxInt, randWalk(rng, 16)), &got); code != http.StatusBadRequest {
				t.Fatalf("%s of id math.MaxInt: status %d (%s), want 400", ep.path, code, got.Error)
			}
		}
		// Auto IDs still never collide with a committed one.
		for i := 0; i < 2; i++ {
			ingestOne(t, client, hs.URL, nil, randWalk(rng, 16))
		}
	})
}

// TestServerIngestBatch drives the batched ingest endpoint: mixed
// auto/explicit IDs commit atomically under one epoch, invalid batches reject
// wholesale with nothing applied, and the WAL group append recovers the whole
// batch after a restart.
func TestServerIngestBatch(t *testing.T) {
	mem := wal.NewMemFS()
	s, hs := newTestServer(t, durableConfig(mem, 1))
	client := hs.Client()
	rng := rand.New(rand.NewSource(77))

	series := func() ts.Series { return randWalk(rng, 64) }
	explicit := 100
	body := map[string]any{"series": []map[string]any{
		{"values": series()},
		{"id": explicit, "values": series()},
		{"values": series()},
	}}
	var resp ingestBatchResponse
	if code := doJSON(t, client, "POST", hs.URL+"/v1/ingest/batch", body, &resp); code != http.StatusCreated {
		t.Fatalf("batch ingest: status %d", code)
	}
	if len(resp.IDs) != 3 || resp.IndexSize != 3 {
		t.Fatalf("batch response: ids %v, size %d", resp.IDs, resp.IndexSize)
	}
	if resp.IDs[1] != explicit {
		t.Fatalf("explicit id not honoured: got %d", resp.IDs[1])
	}
	if resp.Epoch != 1 {
		t.Fatalf("batch advanced epoch to %d, want 1 (one epoch per batch)", resp.Epoch)
	}
	// Auto IDs continue past the explicit one.
	if resp.IDs[2] != explicit+1 {
		t.Fatalf("auto id after explicit = %d, want %d", resp.IDs[2], explicit+1)
	}

	// A duplicate inside the batch rejects the whole request atomically.
	dup := map[string]any{"series": []map[string]any{
		{"id": 200, "values": series()},
		{"id": 200, "values": series()},
	}}
	var errResp errorResponse
	if code := doJSON(t, client, "POST", hs.URL+"/v1/ingest/batch", dup, &errResp); code != http.StatusConflict {
		t.Fatalf("duplicate batch: status %d (%s)", code, errResp.Error)
	}
	// A mid-batch invalid series (length differing from the first) rejects
	// wholesale too.
	bad := map[string]any{"series": []map[string]any{
		{"values": series()},
		{"values": randWalk(rng, 32)},
	}}
	if code := doJSON(t, client, "POST", hs.URL+"/v1/ingest/batch", bad, &errResp); code != http.StatusBadRequest {
		t.Fatalf("invalid batch: status %d", code)
	}
	// An empty batch is a client error, not a no-op 201.
	if code := doJSON(t, client, "POST", hs.URL+"/v1/ingest/batch",
		map[string]any{"series": []map[string]any{}}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", code)
	}
	if got := s.Index().Len(); got != 3 {
		t.Fatalf("rejected batches leaked entries: Len = %d, want 3", got)
	}

	// The group-appended batch survives a clean restart.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := New(durableConfig(mem, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	if got := s2.Index().Len(); got != 3 {
		t.Fatalf("recovered Len = %d, want 3", got)
	}

	// A single ingest is a batch of one: the same series with the same IDs
	// through either endpoint leave the same bytes in every WAL file, the same
	// size and epoch after every step, the same answers and the same
	// rejections.
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch of one/shards=%d", shards), func(t *testing.T) {
			fsys := make([]*wal.MemFS, len(ingestEndpoints))
			urls := make([]string, len(ingestEndpoints))
			for e := range ingestEndpoints {
				fsys[e] = wal.NewMemFS()
				_, hs := newTestServer(t, durableShardedConfig(fsys[e], 1, shards))
				urls[e] = hs.URL
			}
			// post sends one ingest to both servers and requires the same
			// verdict, size and epoch from both.
			post := func(id int, values ts.Series, want int) {
				t.Helper()
				var got [2]ingestOutcome
				for e, ep := range ingestEndpoints {
					if code := doJSON(t, client, "POST", urls[e]+ep.path, ep.body(id, values), &got[e]); code != want {
						t.Fatalf("%s id %d: status %d (%s), want %d", ep.path, id, code, got[e].Error, want)
					}
				}
				if got[0].IndexSize != got[1].IndexSize || got[0].Epoch != got[1].Epoch {
					t.Fatalf("id %d: single %+v, batch of one %+v", id, got[0], got[1])
				}
			}
			state := func() (out [2]ingestOutcome) {
				for e := range out {
					doJSON(t, client, "GET", urls[e]+"/healthz", nil, &out[e])
				}
				return out
			}
			stored := []ts.Series{series(), series(), series()}
			for i, v := range stored {
				post(10+7*i, v, http.StatusCreated)
			}
			before := state()
			post(17, series(), http.StatusConflict)            // duplicate explicit ID
			post(99, randWalk(rng, 32), http.StatusBadRequest) // wrong length
			if after := state(); after != before || before[0] != before[1] || before[0].IndexSize != 3 {
				t.Fatalf("rejections applied something: %+v, then %+v", before, after)
			}
			post(99, series(), http.StatusCreated) // the rejected ID was not claimed

			names, err := fsys[0].List()
			if err != nil {
				t.Fatal(err)
			}
			other, _ := fsys[1].List()
			sort.Strings(names)
			sort.Strings(other)
			if !reflect.DeepEqual(names, other) || len(names) == 0 {
				t.Fatalf("files differ: single %v, batch of one %v", names, other)
			}
			for _, name := range names {
				a, _ := fsys[0].ReadFile(name)
				b, _ := fsys[1].ReadFile(name)
				if !bytes.Equal(a, b) {
					t.Errorf("%s: %d bytes after single ingests, %d after batches of one, not identical", name, len(a), len(b))
				}
			}
			for i, v := range stored {
				a, b := knnIDs(t, client, urls[0], v, 3), knnIDs(t, client, urls[1], v, 3)
				if !reflect.DeepEqual(a, b) || a[0].ID != 10+7*i {
					t.Errorf("k-NN for series %d: single %v, batch of one %v", i, a, b)
				}
			}
		})
	}
}

// TestServerDismissedMetric: /metrics search.dismissed counts the
// refinements the flat tier's chunk envelope ended before reading a raw
// value — some of the measured ones on 1024-point series, none on 256-point
// series, whose rows keep no envelope.
func TestServerDismissedMetric(t *testing.T) {
	for _, n := range []int{256, 1024} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, hs := newTestServer(t, Config{Workers: 1, Shards: 4})
			client := hs.Client()
			rng := rand.New(rand.NewSource(int64(n)))
			stored := make([]ts.Series, 400)
			for lo := 0; lo < len(stored); lo += 200 {
				items := make([]map[string]any, 200)
				for i := range items {
					stored[lo+i] = wireSeries(rng, n)
					items[i] = map[string]any{"values": stored[lo+i]}
				}
				if code := doJSON(t, client, "POST", hs.URL+"/v1/ingest/batch", map[string]any{"series": items}, nil); code != http.StatusCreated {
					t.Fatalf("batch ingest: status %d", code)
				}
			}
			for i := 0; i < 8; i++ {
				q := stored[rng.Intn(len(stored))].Clone()
				for j := range q {
					q[j] += 0.3 * rng.NormFloat64()
				}
				var knn knnResponse
				if code := doJSON(t, client, "POST", hs.URL+"/v1/knn", map[string]any{"values": q, "k": 5}, &knn); code != http.StatusOK {
					t.Fatalf("knn: status %d", code)
				}
				if code := doJSON(t, client, "POST", hs.URL+"/v1/range",
					map[string]any{"values": q, "radius": knn.Results[4].Dist}, nil); code != http.StatusOK {
					t.Fatalf("range: status %d", code)
				}
			}
			var met struct {
				Search struct {
					Measured  int64 `json:"measured"`
					Dismissed int64 `json:"dismissed"`
				} `json:"search"`
			}
			if code := doJSON(t, client, "GET", hs.URL+"/metrics", nil, &met); code != http.StatusOK {
				t.Fatalf("metrics: status %d", code)
			}
			s := met.Search
			t.Logf("dismissed %d of %d measured", s.Dismissed, s.Measured)
			if s.Dismissed > s.Measured || (n >= 512) != (s.Dismissed > 0) {
				t.Fatalf("n=%d: dismissed %d of %d measured", n, s.Dismissed, s.Measured)
			}
		})
	}
}
