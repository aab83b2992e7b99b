package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"sapla/internal/ts"
	"sapla/internal/wal"
)

// benchServer returns an in-memory server holding stored series of length n,
// bulk-loaded 250 at a time as the end-to-end benchmark does, and a function
// that serves one request through the full handler chain with no socket in
// between.
func benchServer(b *testing.B, rng *rand.Rand, stored, n int) func(path string, raw []byte, want int) {
	b.Helper()
	s, err := New(Config{M: 12})
	if err != nil {
		b.Fatal(err)
	}
	post := func(path string, raw []byte, want int) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		if rec.Code != want {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	for lo := 0; lo < stored; lo += 250 {
		post("/v1/ingest/batch", ingestBatchBody(rng, 250, n), http.StatusCreated)
	}
	return post
}

func benchBody(b *testing.B, v any) []byte {
	b.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// ingestBatchBody renders count series without IDs in the benchmark's wire
// format, six-decimal values included; json.Marshal would write "id":null,
// which is encoding/json's to decode.
func ingestBatchBody(rng *rand.Rand, count, n int) []byte {
	raw := []byte(`{"series":[`)
	for i := 0; i < count; i++ {
		if i > 0 {
			raw = append(raw, ',')
		}
		raw = append(wireValues(append(raw, '{'), wireSeries(rng, n)), '}')
	}
	return append(raw, `]}`...)
}

// BenchmarkHandlerKNN serves POST /v1/knn through the full handler chain —
// decode, validate, search, encode — with no socket in between:
// 1000 stored series at the two lengths the end-to-end benchmark uses, so
// B/op and allocs/op are what one served query costs outside the index.
func BenchmarkHandlerKNN(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			post := benchServer(b, rng, 1000, n)
			queries := make([][]byte, 16)
			for i := range queries {
				queries[i] = benchBody(b, knnRequest{Values: wireSeries(rng, n), K: 10})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post("/v1/knn", queries[i%len(queries)], http.StatusOK)
			}
		})
	}
}

// BenchmarkHandlerKNNBatch serves the end-to-end benchmark's batch shape, 32
// queries per POST /v1/knn/batch. Run at -cpu 1,2: decode is serial, the
// searches spread over the workers, one query a task.
func BenchmarkHandlerKNNBatch(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			post := benchServer(b, rng, 1000, n)
			req := batchRequest{K: 10, Queries: make([]batchQuery, 32)}
			for i := range req.Queries {
				req.Queries[i].Values = wireSeries(rng, n)
			}
			raw := benchBody(b, req)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post("/v1/knn/batch", raw, http.StatusOK)
			}
		})
	}
}

// BenchmarkHandlerIngestBatch serves the bulk-load shape, 250 series per POST
// /v1/ingest/batch with server-assigned IDs, into an in-memory index (no
// WAL): what is left is decode, validate and insert, whose chunk envelopes
// are the one per-series computation. Run at -cpu 1,2.
func BenchmarkHandlerIngestBatch(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			post := benchServer(b, rng, 250, n)
			raw := ingestBatchBody(rng, 250, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post("/v1/ingest/batch", raw, http.StatusCreated)
			}
		})
	}
}

// BenchmarkHandlerIngest serves the single-ingest shape the end-to-end
// benchmark's ingest_p90_ms times: one six-decimal series with an explicit ID
// per POST /v1/ingest onto a durable server, through decode, validate, the
// WAL append and its fsync (on a wal.MemFS, so the fsync is a copy, not a
// disk flush) and the insert. Every 512 ingests the server is replaced by an
// empty one, off the clock, so the log and the index stay small.
func BenchmarkHandlerIngest(b *testing.B) {
	const round = 512
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			bodies := make([][]byte, round)
			for i := range bodies {
				bodies[i] = append(wireValues(fmt.Appendf(nil, `{"id":%d,`, i), wireSeries(rng, n)), '}')
			}
			var hd http.Handler
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%round == 0 {
					b.StopTimer()
					s, err := New(Config{WALFS: wal.NewMemFS(), SnapshotEvery: -1})
					if err != nil {
						b.Fatal(err)
					}
					hd = s.Handler()
					b.StartTimer()
				}
				rec := httptest.NewRecorder()
				hd.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(bodies[i%round])))
				if rec.Code != http.StatusCreated {
					b.Fatalf("ingest: %d %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkDecodeBody decodes one body from memory into a zeroed target. The
// wire rows are what the end-to-end benchmark sends — six-decimal values, so
// every number takes the scanner's exact fast path: a k-NN body at both
// lengths and a 250 × 1024 bulk load. The n256 and n1024 rows are k-NN bodies
// of json.Marshal's 17-digit floats, whose numbers go through strconv: the
// scanner there against the encoding/json call it falls back to.
func BenchmarkDecodeBody(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{256, 1024} {
		raw := append(wireValues([]byte(`{`), wireSeries(rng, n)), `,"k":10}`...)
		b.Run(fmt.Sprintf("wire/knn-n%d", n), benchDecode[knnRequest](raw))
	}
	b.Run("wire/ingest-250x1024", benchDecode[ingestBatchRequest](ingestBatchBody(rng, 250, 1024)))

	for _, n := range []int{256, 1024} {
		raw := benchBody(b, knnRequest{Values: randWalk(rand.New(rand.NewSource(6)), n), K: 10})
		b.Run(fmt.Sprintf("n%d/scanner", n), benchDecode[knnRequest](raw))
		b.Run(fmt.Sprintf("n%d/encoding-json", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			var req knnRequest
			for i := 0; i < b.N; i++ {
				req = knnRequest{}
				if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchDecode decodes raw into a zeroed T with decodeRequest, which must take
// it on the scanner.
func benchDecode[T any](raw []byte) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		var req T
		for i := 0; i < b.N; i++ {
			var zero T
			req = zero
			if fast, err := decodeRequest(raw, &req); !fast || err != nil {
				b.Fatal(fast, err)
			}
		}
	}
}

// BenchmarkRecover times New over a wal.MemFS holding a benchmark index:
// the 1x6000x256 rows are search_1shard's (one shard, 6000 series of 256
// points), the 4x1500x1024 rows rw_long_4shard's (4 shards, 6000 of 1024).
// The 256-point rows and the dec6 rows draw the wire format's six decimals
// (wireSeries), the other 1024-point rows full-precision random walks. The
// first path element is the log's form: on a replog row each record is what
// a server that logged representations wrote (writeRepLog: six decimals in
// op 4 and 1024-point float64 values in op 3, each carrying its SAPLA
// representation), on a log row what a server writes now, the bare values in
// op 4 or op 1. Neither reduces on recovery: replay drops a logged
// representation, so the rows differ by the bytes decoded.
func BenchmarkRecover(b *testing.B) {
	const count = 6000
	for _, row := range []struct {
		shards, n int
		form      string
		gen       func(*rand.Rand, int) ts.Series
	}{
		{1, 256, "", wireSeries},
		{4, 1024, "", randWalk},
		{4, 1024, "dec6", wireSeries},
	} {
		for _, log := range []string{"replog", "log"} {
			name := fmt.Sprintf("%s/%dx%dx%d", log, row.shards, count/row.shards, row.n)
			if row.form != "" {
				name += "/" + row.form
			}
			b.Run(name, func(b *testing.B) {
				benchRecover(b, row.shards, count, row.n, log == "replog", row.gen)
			})
		}
	}
}

// benchRecover writes count series drawn by gen to shards WAL streams — as a
// server that logged representations did when reps, through a server's
// ingests otherwise — and times New over them.
func benchRecover(b *testing.B, shards, count, n int, reps bool, gen func(*rand.Rand, int) ts.Series) {
	rng := rand.New(rand.NewSource(8))
	mem := wal.NewMemFS()
	cfg := Config{WALFS: mem, Shards: shards, SnapshotEvery: -1}
	if reps {
		logged := make(map[int]ts.Series, count)
		for id := 0; id < count; id++ {
			logged[id] = gen(rng, n)
		}
		writeRepLog(b, mem, shards, nil, logged, nil)
	} else {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < count; lo += 250 {
			items := make([]ingestRequest, 250)
			for i := range items {
				items[i].Values = gen(rng, n)
			}
			if _, rej := s.ingest(context.Background(), items); rej != nil {
				b.Fatal(rej.err)
			}
		}
		if err := s.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s.Index().Len() != count {
			b.Fatalf("recovered %d series, want %d", s.Index().Len(), count)
		}
		if err := s.Shutdown(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
