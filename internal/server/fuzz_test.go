package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"sapla/internal/index"
	"sapla/internal/wal"
)

// fuzzEndpoints are FuzzHandlers' endpoint selector's targets, in order. The
// DELETE target takes the fuzzed bytes as its ID path segment; every other
// takes them as the body.
var fuzzEndpoints = []struct{ method, path string }{
	{"POST", "/v1/ingest"},
	{"POST", "/v1/ingest/batch"},
	{"POST", "/v1/knn"},
	{"POST", "/v1/knn/batch"},
	{"POST", "/v1/range"},
	{"DELETE", "/v1/series/"},
	{"POST", "/v1/ingest?include_rep=1"},
}

// FuzzHandlers' server bounds, tight so the seeds reach each boundary with
// small bodies; fuzzN is the pinned series length.
const (
	fuzzMaxK     = 4
	fuzzMaxBatch = 3
	fuzzMaxBody  = 4 << 10
	fuzzN        = 16
)

// fuzzBody renders v as a request body.
func fuzzBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzHandlers holds the request bounds at the HTTP surface: on any
// endpoint and any body, the server must not panic or answer 5xx; a body
// over MaxBodyBytes answers 413; a 2xx comes only for a request whose k, batch
// size and every series length are in bounds; a refused request leaves the
// index's size and epoch as they were; and whatever was admitted, every
// stored series stays non-empty, finite and of the pinned length. Each input
// runs against a fresh durable server holding three 16-point series.
func FuzzHandlers(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	series := func(n int) []float64 { return randWalk(rng, n) }
	items := func(count, n int) []map[string]any {
		out := make([]map[string]any, count)
		for i := range out {
			out[i] = map[string]any{"values": series(n)}
		}
		return out
	}
	const ingest, ingestBatch, knn, knnBatch, rangeQ, del, ingestRep = 0, 1, 2, 3, 4, 5, 6
	// One valid body per endpoint.
	f.Add(uint8(ingest), fuzzBody(map[string]any{"id": 40, "values": series(fuzzN)}))
	f.Add(uint8(ingestBatch), fuzzBody(map[string]any{"series": items(fuzzMaxBatch, fuzzN)}))
	f.Add(uint8(knn), fuzzBody(map[string]any{"k": fuzzMaxK, "values": series(fuzzN)}))
	f.Add(uint8(knnBatch), fuzzBody(map[string]any{"k": 1, "queries": items(fuzzMaxBatch, fuzzN)}))
	f.Add(uint8(rangeQ), fuzzBody(map[string]any{"radius": 5.0, "values": series(fuzzN)}))
	f.Add(uint8(del), []byte("1"))
	// Each boundary, one past it.
	f.Add(uint8(knn), fuzzBody(map[string]any{"k": fuzzMaxK + 1, "values": series(fuzzN)}))
	f.Add(uint8(knnBatch), fuzzBody(map[string]any{"k": fuzzMaxK + 1, "queries": items(1, fuzzN)}))
	f.Add(uint8(ingestBatch), fuzzBody(map[string]any{"series": items(fuzzMaxBatch+1, fuzzN)}))
	f.Add(uint8(knnBatch), fuzzBody(map[string]any{"k": 1, "queries": items(fuzzMaxBatch+1, fuzzN)}))
	f.Add(uint8(knnBatch), fuzzBody(map[string]any{"k": 1, "queries": append(items(1, fuzzN), items(1, fuzzN-1)...)}))
	f.Add(uint8(ingestBatch), fuzzBody(map[string]any{"series": append(items(1, fuzzN), items(1, fuzzN+1)...)}))
	f.Add(uint8(ingest), fuzzBody(map[string]any{"values": []float64{}}))
	f.Add(uint8(knn), fuzzBody(map[string]any{"k": 1, "values": []float64{}}))
	f.Add(uint8(ingest), fuzzBody(map[string]any{"id": math.MaxInt, "values": series(fuzzN)}))
	f.Add(uint8(ingestBatch), fuzzBody(map[string]any{"series": []map[string]any{{"id": math.MaxInt, "values": series(fuzzN)}}}))
	f.Add(uint8(del), []byte(strconv.Itoa(math.MaxInt)))
	// A valid ingest padded with trailing spaces to the limit, and one byte past.
	full := fuzzBody(map[string]any{"values": series(fuzzN)})
	for _, size := range []int{fuzzMaxBody, fuzzMaxBody + 1} {
		f.Add(uint8(ingest), append(full[:len(full):len(full)], bytes.Repeat([]byte(" "), size-len(full))...))
	}
	// A single ingest asking for its representation, and one too short to
	// reduce.
	f.Add(uint8(ingestRep), fuzzBody(map[string]any{"values": series(fuzzN)}))
	f.Add(uint8(ingestRep), fuzzBody(map[string]any{"values": series(3)}))

	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		s, err := New(Config{
			MaxK: fuzzMaxK, MaxBatch: fuzzMaxBatch, MaxBodyBytes: fuzzMaxBody,
			WALFS: wal.NewMemFS(), SnapshotEvery: -1, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		seed := rand.New(rand.NewSource(3))
		for i := 0; i < 3; i++ {
			if _, rej := s.ingest(context.Background(), []ingestRequest{{Values: randWalk(seed, fuzzN)}}); rej != nil {
				t.Fatal(rej.err)
			}
		}
		target := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		var req *http.Request
		if target.method == "DELETE" {
			req = httptest.NewRequest(target.method, target.path+url.PathEscape(string(body)), nil)
		} else {
			req = httptest.NewRequest(target.method, target.path, bytes.NewReader(body))
		}
		size, epoch := s.idx.Len(), s.idx.Epoch()

		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		code := rec.Code

		if code >= 500 {
			t.Fatalf("%s %s: %d %s", target.method, target.path, code, rec.Body)
		}
		if target.method != "DELETE" && len(body) > fuzzMaxBody && code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d-byte body answered %d, want 413", target.path, len(body), code)
		}
		if code/100 == 2 {
			if why := outOfBounds(target.path, body); why != "" {
				t.Fatalf("%s answered %d to a request with %s", target.path, code, why)
			}
		} else if s.idx.Len() != size || s.idx.Epoch() != epoch {
			t.Fatalf("%s answered %d but moved the index: size %d → %d, epoch %d → %d",
				target.path, code, size, s.idx.Len(), epoch, s.idx.Epoch())
		}
		for _, sh := range s.shards {
			sh.mu.Lock()
			sh.flat.Each(func(e *index.Entry) {
				if len(e.Raw) != fuzzN {
					t.Fatalf("id %d stored with %d points, want %d", e.ID, len(e.Raw), fuzzN)
				}
				for _, v := range e.Raw {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("id %d stored with non-finite value %g", e.ID, v)
					}
				}
			})
			sh.mu.Unlock()
		}
	})
}

// outOfBounds decodes body the way the server does (encoding/json, whose
// verdicts the fast decoder reproduces) and names the first bound it breaks,
// or returns "" when a request to path with it may be admitted.
func outOfBounds(path string, body []byte) string {
	decode := func(v any) bool { return json.NewDecoder(bytes.NewReader(body)).Decode(v) == nil }
	length := func(what string, values []float64) string {
		if len(values) != fuzzN {
			return fmt.Sprintf("a %s of %d points, not %d", what, len(values), fuzzN)
		}
		return ""
	}
	kOut := func(k int) string {
		if k < 1 || k > fuzzMaxK {
			return fmt.Sprintf("k = %d", k)
		}
		return ""
	}
	batchOut := func(count int) string {
		if count < 1 || count > fuzzMaxBatch {
			return fmt.Sprintf("a batch of %d", count)
		}
		return ""
	}
	first := func(reasons ...string) string {
		for _, r := range reasons {
			if r != "" {
				return r
			}
		}
		return ""
	}
	switch path {
	case "/v1/ingest", "/v1/ingest?include_rep=1":
		var req ingestRequest
		if !decode(&req) {
			return "an undecodable body"
		}
		if req.ID != nil && *req.ID == math.MaxInt {
			return "id = math.MaxInt"
		}
		return length("series", req.Values)
	case "/v1/ingest/batch":
		var req ingestBatchRequest
		if !decode(&req) {
			return "an undecodable body"
		}
		why := batchOut(len(req.Series))
		for _, item := range req.Series {
			if item.ID != nil && *item.ID == math.MaxInt {
				why = first(why, "id = math.MaxInt")
			}
			why = first(why, length("series", item.Values))
		}
		return why
	case "/v1/knn":
		var req knnRequest
		if !decode(&req) {
			return "an undecodable body"
		}
		return first(kOut(req.K), length("query", req.Values))
	case "/v1/knn/batch":
		var req batchRequest
		if !decode(&req) {
			return "an undecodable body"
		}
		why := first(kOut(req.K), batchOut(len(req.Queries)))
		for _, q := range req.Queries {
			why = first(why, length("query", q.Values))
		}
		return why
	case "/v1/range":
		var req rangeRequest
		if !decode(&req) {
			return "an undecodable body"
		}
		return length("query", req.Values)
	default: // DELETE
		if _, err := strconv.Atoi(string(body)); err != nil {
			return fmt.Sprintf("id %q", body)
		}
		return ""
	}
}
