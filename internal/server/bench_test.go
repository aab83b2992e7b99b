package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkHandlerKNN serves POST /v1/knn through the full handler chain —
// decode, validate, reduce, search, encode — with no socket in between:
// 1000 stored series at the two lengths the end-to-end benchmark uses, so
// B/op and allocs/op are what one served query costs outside the index.
func BenchmarkHandlerKNN(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			s, err := New(Config{M: 12})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			body := func(v any) []byte {
				raw, err := json.Marshal(v)
				if err != nil {
					b.Fatal(err)
				}
				return raw
			}
			post := func(path string, raw []byte, want int) {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
				if rec.Code != want {
					b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
				}
			}
			for lo := 0; lo < 1000; lo += 250 {
				batch := make([]ingestRequest, 250)
				for i := range batch {
					batch[i].Values = randWalk(rng, n)
				}
				post("/v1/ingest/batch", body(ingestBatchRequest{Series: batch}), http.StatusCreated)
			}
			queries := make([][]byte, 16)
			for i := range queries {
				queries[i] = body(knnRequest{Values: randWalk(rng, n), K: 10})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post("/v1/knn", queries[i%len(queries)], http.StatusOK)
			}
		})
	}
}
