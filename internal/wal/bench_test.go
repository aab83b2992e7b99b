package wal

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkStoreAppend times one durable append on a MemFS store at
// SyncEvery 1, in the shapes the server logs: a single ingest (a batch of
// one, as POST /v1/ingest appends it), a 32-series batch, and a delete. The
// values are six-decimal random walks, the wire format's, so ingests take
// op 4. Every few megabytes the store rotates and drops the sealed segment,
// off the clock, so the benchmark's memory stays bounded.
func BenchmarkStoreAppend(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, size := range []int{1, 32} {
			name := fmt.Sprintf("ingest/n%d", n)
			if size > 1 {
				name = fmt.Sprintf("batch%d/n%d", size, n)
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				batch := make([]Series, size)
				for i := range batch {
					batch[i] = Series{ID: int64(i), Values: sixDecimals(walk(rng, n))}
				}
				benchAppend(b, func(st *Store) error { return st.AppendIngestBatch(batch) })
			})
		}
	}
	b.Run("delete", func(b *testing.B) {
		benchAppend(b, func(st *Store) error { return st.AppendDelete(7) })
	})
}

// benchAppend runs appendOnce b.N times on a fresh MemFS store.
func benchAppend(b *testing.B, appendOnce func(*Store) error) {
	mem := NewMemFS()
	st, _, _, err := Open(mem, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := appendOnce(st); err != nil {
			b.Fatal(err)
		}
		if st.segSize > 4<<20 {
			b.StopTimer()
			sealed, err := st.Rotate()
			if err != nil {
				b.Fatal(err)
			}
			if err := mem.Remove(segFileName(sealed)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
}
