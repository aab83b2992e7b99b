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
	"strings"
	"sync"
	"testing"
	"time"

	"sapla/internal/core"
	"sapla/internal/index"
	"sapla/internal/reduce"
	"sapla/internal/ts"
	"sapla/internal/tsio"
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
}

// TestServerServesSAPLAOnly: Config.Method accepts "" and "SAPLA"; every
// baseline name, and a name that is no method, fails New with an error that
// names SAPLA.
func TestServerServesSAPLAOnly(t *testing.T) {
	for _, name := range []string{"", "SAPLA"} {
		if _, err := New(Config{Method: name}); err != nil {
			t.Fatalf("method %q: %v", name, err)
		}
	}
	refused := []string{"NOPE"}
	for _, m := range reduce.Baselines() {
		refused = append(refused, m.Name())
	}
	for _, name := range refused {
		if _, err := New(Config{Method: name}); err == nil || !strings.Contains(err.Error(), "SAPLA") {
			t.Fatalf("method %q: err %v, want a refusal naming SAPLA", name, err)
		}
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
// in a JSON document, and a length-1 series passes validation and is stored
// — it fails reduction with a client error rather than a 500 only when
// ?include_rep=1 asks for its representation. An explicit ID of
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
		var got ingestOutcome
		code := doJSON(t, client, "POST", hs.URL+"/v1/ingest?include_rep=1", map[string]any{"id": 7, "values": ts.Series{1}}, &got)
		if code != http.StatusBadRequest {
			t.Fatalf("length-1 ingest with include_rep=1 returned %d, want 400", code)
		}
		if !strings.HasPrefix(got.Error, "reduce: ") {
			t.Errorf("length-1 rejection %q should come from the reducer, not validation", got.Error)
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

		// Without the parameter nothing is reduced: both endpoints store the
		// series, each on a server of its own, since it pins the length at 1.
		for _, ep := range ingestEndpoints {
			_, one := newTestServer(t, Config{M: 12})
			if code := doJSON(t, one.Client(), "POST", one.URL+ep.path, ep.body(7, ts.Series{1}), &got); code != http.StatusCreated || got.IndexSize != 1 {
				t.Fatalf("%s: length-1 ingest returned %d %+v, want 201", ep.path, code, got)
			}
		}
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

// TestServerPruningMetric: /metrics search counts the flat tier's work, and
// the filter prunes: measured stays below candidates on 256-point series,
// whose refinements abandon on the partial sum alone, and on 1024-point ones,
// whose refinements abandon on the chunk envelope.
func TestServerPruningMetric(t *testing.T) {
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
					Measured   int64 `json:"measured"`
					Candidates int64 `json:"candidates"`
				} `json:"search"`
			}
			if code := doJSON(t, client, "GET", hs.URL+"/metrics", nil, &met); code != http.StatusOK {
				t.Fatalf("metrics: status %d", code)
			}
			s := met.Search
			t.Logf("measured %d of %d candidates", s.Measured, s.Candidates)
			if s.Measured >= s.Candidates {
				t.Fatalf("n=%d: measured %d of %d candidates", n, s.Measured, s.Candidates)
			}
		})
	}
}

// TestServerIncludeRep: POST /v1/ingest?include_rep=1 answers with the SAPLA
// representation a fresh reducer computes from the values at the server's M,
// and otherwise ingests exactly as a request without the parameter: the same
// answers, and a data directory equal to the other server's, with no
// representation in it. A series too short for M/3 segments is refused with
// 400 and nothing applied when the parameter asks for its representation.
func TestServerIncludeRep(t *testing.T) {
	for _, m := range []int{6, 12} {
		t.Run(fmt.Sprintf("M=%d", m), func(t *testing.T) {
			mems := [2]*wal.MemFS{wal.NewMemFS(), wal.NewMemFS()}
			var hds [2]http.Handler
			for i, mem := range mems {
				cfg := durableShardedConfig(mem, 1, 2)
				cfg.M = m
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				hds[i] = s.Handler()
			}
			var got writeReply
			if code := call(t, hds[0], "POST", "/v1/ingest?include_rep=1", map[string]any{"values": ts.Series{1, 2, 3}}, &got); code != http.StatusBadRequest ||
				!strings.HasPrefix(got.Error, "reduce: ") {
				t.Fatalf("a 3-point series with include_rep=1: %d %q, want 400 from the reducer", code, got.Error)
			}
			if code := call(t, hds[0], "GET", "/healthz", nil, &got); code != http.StatusOK || got.IndexSize != 0 || got.Epoch != 0 {
				t.Fatalf("the refused ingest left %+v", got)
			}

			red := core.NewReducer()
			rng := rand.New(rand.NewSource(int64(m)))
			for i := 0; i < 6; i++ {
				v := randWalk(rng, 64)
				if i%2 == 0 {
					v = wireSeries(rng, 64)
				}
				want, err := red.Reduce(v, m)
				if err != nil {
					t.Fatal(err)
				}
				var with, without writeReply
				if code := call(t, hds[0], "POST", "/v1/ingest?include_rep=1", map[string]any{"values": v}, &with); code != http.StatusCreated {
					t.Fatalf("ingest %d with include_rep=1: %d %s", i, code, with.Error)
				}
				if code := call(t, hds[1], "POST", "/v1/ingest", map[string]any{"values": v}, &without); code != http.StatusCreated {
					t.Fatalf("ingest %d: %d %s", i, code, without.Error)
				}
				rep, err := tsio.UnmarshalRepresentation(with.Representation)
				if err != nil || !reflect.DeepEqual(rep, want) {
					t.Fatalf("ingest %d answered representation %+v (%v), a fresh reduction at M = %d %+v", i, rep, err, m, want)
				}
				if with.Representation, without.Representation = nil, nil; !reflect.DeepEqual(with, without) {
					t.Fatalf("ingest %d answered %+v with include_rep=1, %+v without", i, with, without)
				}
			}
			if !reflect.DeepEqual(memFiles(t, mems[0]), memFiles(t, mems[1])) {
				t.Fatal("include_rep=1 changed what the WAL holds")
			}
			walRecords(t, mems[0])
		})
	}
}

// TestBatchWorkersByteIdentical: how many workers serve a batch must not
// show in the answers — the same requests against Workers 1, 2 and 8 servers
// return the same bytes.
func TestBatchWorkersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	bodies := wireBodies(rng, 64, wireSeries)
	bulk, batch := bodies[3], bodies[4]
	more := bytes.ReplaceAll(wireBodies(rng, 64, wireSeries)[3], []byte(`"id":`), []byte(`"id":10`))

	var want []string
	for _, workers := range []int{1, 2, 8} {
		_, hs := newTestServer(t, Config{M: 12, Workers: workers, Shards: 2})
		var got []string
		for _, req := range []struct {
			path string
			body []byte
		}{
			{"/v1/ingest/batch", bulk},
			{"/v1/ingest/batch", more},
			{"/v1/knn/batch", batch},
			{"/v1/ingest/batch", bulk}, // duplicate IDs: 409, byte-identical too
		} {
			resp, err := hs.Client().Post(hs.URL+req.path, "application/json", bytes.NewReader(req.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("%d %s", resp.StatusCode, raw))
		}
		if want == nil {
			want = got
			if !strings.HasPrefix(got[0], "201 ") || !strings.HasPrefix(got[2], "200 ") || !strings.HasPrefix(got[3], "409 ") {
				t.Fatalf("reference answers: %q", got)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d answers\n%q\nworkers=1 answers\n%q", workers, got, want)
		}
	}
}
