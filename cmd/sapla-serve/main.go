// Command sapla-serve runs the similarity-search service: a long-running
// HTTP server that ingests raw series (appended to a flat filter-and-refine
// tier per shard, unreduced) while answering k-NN, batch k-NN and ε-range
// queries.
//
// Endpoints:
//
//	POST   /v1/ingest        {"values":[...], "id":7?}          -> store a series (?include_rep=1: and return its SAPLA representation at -m)
//	POST   /v1/ingest/batch  {"series":[{"values":..}, ...]}    -> store many atomically
//	POST   /v1/knn           {"values":[...], "k":5}            -> k nearest neighbours
//	POST   /v1/knn/batch     {"k":5, "queries":[{"values":..}]} -> many queries, one pool
//	POST   /v1/range         {"values":[...], "radius":4.2}     -> ε-range query
//	DELETE /v1/series/{id}                                      -> remove a series
//	GET    /healthz                                             -> liveness
//	GET    /readyz                                              -> readiness (recovering/ready/draining)
//	GET    /metrics                                             -> counters, latency histograms, durability
//	GET    /debug/pprof/                                        -> runtime profiles
//
// With -data-dir the service is durable: every ingest/delete is appended to
// a checksummed write-ahead log before it is acknowledged, snapshots bound
// replay time, and startup recovers the index from disk. Overloaded endpoint
// classes shed requests with 429 + Retry-After instead of queueing without
// bound.
//
// The process exits cleanly on SIGINT/SIGTERM after draining in-flight
// requests, flushing and closing the WAL.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sapla/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		method   = flag.String("method", "SAPLA", "reduction method: only SAPLA is served, any other value fails startup")
		m        = flag.Int("m", 12, "coefficient budget of the SAPLA representation ?include_rep=1 returns")
		workers  = flag.Int("workers", 0, "batch k-NN workers (0 = GOMAXPROCS)")
		shards   = flag.Int("shards", 1, "index shard count (stable-hash partitioned; a durable data dir pins the count it was created with)")
		maxK     = flag.Int("max-k", 128, "largest k accepted per query")
		maxBatch = flag.Int("max-batch", 256, "largest query count per batch request")
		maxBody  = flag.Int64("max-body", 8<<20, "request body size limit in bytes")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		grace    = flag.Duration("grace", 15*time.Second, "shutdown drain budget")

		dataDir   = flag.String("data-dir", "", "durability directory for WAL + snapshots (empty = in-memory only)")
		syncEvery = flag.Int("sync-every", 1, "WAL group-commit batch: fsync after every N records (1 = fsync each acknowledged write)")
		snapEvery = flag.Duration("snapshot-every", 5*time.Minute, "period of the background snapshot that bounds WAL replay time")

		// Parsed and ignored: bench/ still passes it (see server.Config.CompactEvery).
		compactEvery = flag.Duration("compact-every", 0, "ignored: the flat tier has nothing to compact")

		maxSearch = flag.Int("max-inflight-search", 256, "concurrently admitted search requests before shedding with 429")
		maxWrite  = flag.Int("max-inflight-write", 256, "concurrently admitted write requests before shedding with 429")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		Method:            *method,
		M:                 *m,
		Shards:            *shards,
		Workers:           *workers,
		MaxK:              *maxK,
		MaxBatch:          *maxBatch,
		MaxBodyBytes:      *maxBody,
		RequestTimeout:    *timeout,
		DataDir:           *dataDir,
		SyncEvery:         *syncEvery,
		SnapshotEvery:     *snapEvery,
		CompactEvery:      *compactEvery,
		MaxInflightSearch: *maxSearch,
		MaxInflightWrite:  *maxWrite,
	})
	if err != nil {
		log.Fatalf("sapla-serve: %v", err)
	}
	if info, dur, durable := srv.Recovery(); durable {
		log.Printf("sapla-serve: recovered %d series in %s (snapshot seq %d: %d series; %d WAL records replayed across %d segments, %d torn bytes truncated)",
			srv.Index().Len(), dur.Round(time.Millisecond),
			info.SnapshotSeq, info.SnapshotSeries, info.Replayed, info.Segments, info.TornBytes)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("sapla-serve: %v", err)
	}
	log.Printf("sapla-serve: listening on %s (method=%s m=%d shards=%d workers=%d)",
		l.Addr(), *method, *m, srv.Index().NumShards(), *workers)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("sapla-serve: %v", err)
		}
	case <-ctx.Done():
		log.Printf("sapla-serve: signal received, draining for up to %s", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("sapla-serve: shutdown: %v", err)
		}
		<-done
	}
	log.Print("sapla-serve: stopped")
}
