// Package server exposes the similarity-search engine as a long-running HTTP
// service: series are ingested (validated, logged and appended to a flat
// filter-and-refine tier, index.Flat, behind a ShardedIndex; nothing is
// reduced) while k-NN, batch k-NN and ε-range queries are answered
// concurrently, every fan-out on par.Do. SAPLA runs only when a single ingest
// asks for its series' representation (?include_rep=1); the paper's
// reduction, Dist_PAR and trees are reproduced in the library. The service
// is the north-star serving path: reads take shared locks and reuse pooled
// workspaces (no per-request index rebuild, allocation-free search hot path),
// writes serialize per shard, and shutdown drains in-flight requests.
//
// The index is partitioned across Config.Shards shards by a stable hash of
// the series ID. Each shard owns its own flat tier, write lock, epoch
// counter and — with durability enabled — its own WAL segment stream and
// snapshot cadence, so writes to different shards commit concurrently and a
// snapshotting shard never stalls the rest. Queries scatter across every
// shard and gather under the canonical (distance, ID) order; the flat tier
// filters on a proven lower bound of the exact distance, so every answer is
// the one a linear scan over the live series gives, exact distances and ties
// included.
//
// With a data directory configured the service is durable: every
// ingest/delete is appended to its shard's checksummed write-ahead log
// before it is acknowledged, per-shard snapshots bound replay time, and
// startup recovers all shards in parallel (see internal/wal). Admission is
// bounded per endpoint class — saturated classes shed with 429 +
// Retry-After instead of queueing without bound — and /readyz distinguishes
// recovering/draining from ready.
package server

import (
	"context"
	"errors"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sapla/internal/index"
	"sapla/internal/wal"
)

// Config tunes one Server. The zero value is usable: every field falls back
// to the default documented on it.
type Config struct {
	// Method names the reduction method. Only "SAPLA" (the default, also
	// spelled "") is served; New refuses every other name. The field (and
	// sapla-serve's -method) stays only because bench/ still sets it.
	Method string
	// M is the coefficient budget of the SAPLA representation a single
	// ingest returns under ?include_rep=1. Default 12 (4 segments). Nothing
	// stored or searched depends on it.
	M int
	// Shards partitions the index (and, with durability, the WAL) across
	// this many independent shards keyed by a stable hash of the series ID.
	// Default 1. With durability enabled the count persisted in the data
	// directory's manifest wins over this value: records already routed
	// under the persisted count, and reopening under another would replay
	// them into the wrong shards.
	Shards int
	// Workers bounds /v1/knn/batch's par.Do fan-out over its queries (a
	// query is one task, whatever the shard count). Default 0 = GOMAXPROCS.
	Workers int
	// MaxK caps k per query. Default 128.
	MaxK int
	// MaxBatch caps queries per /v1/knn/batch and series per /v1/ingest/batch. Default 256.
	MaxBatch int
	// MaxBodyBytes bounds request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds each API request end-to-end. Default 30s.
	RequestTimeout time.Duration

	// DataDir enables durability: every ingest/delete is appended to a
	// checksummed write-ahead log under this directory before it is
	// acknowledged, and startup recovers the index from the newest snapshot
	// plus WAL replay. Empty (the default) keeps the index purely in-memory.
	DataDir string
	// WALFS overrides the WAL filesystem (tests inject wal.MemFS or
	// wal.FaultFS). When set it takes precedence over DataDir.
	WALFS wal.FS
	// SyncEvery is the WAL group-commit batch: fsync after every N appended
	// records. Default 1 — fsync before every acknowledgement; larger values
	// trade a bounded window of acknowledged-but-unsynced writes for
	// throughput. Only meaningful with durability enabled.
	SyncEvery int
	// SnapshotEvery is the period of the background snapshot ticker that
	// bounds WAL replay time. Default 5m; <0 disables the ticker (snapshots
	// then happen only via explicit test hooks). Only meaningful with
	// durability enabled.
	SnapshotEvery time.Duration

	// CompactEvery is ignored: the flat tier never fragments, so there is
	// nothing to compact. The field (and sapla-serve's -compact-every) stays
	// only because bench/ still sets it; it goes once bench/ stops passing
	// it (ROADMAP item 6b).
	CompactEvery time.Duration

	// MaxInflightSearch bounds concurrently admitted search requests
	// (/v1/knn, /v1/knn/batch, /v1/range); excess requests are shed with
	// 429 + Retry-After instead of queueing without bound. Default 256.
	MaxInflightSearch int
	// MaxInflightWrite bounds concurrently admitted write requests
	// (/v1/ingest, /v1/ingest/batch, DELETE /v1/series). Default 256.
	MaxInflightWrite int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Method == "" {
		c.Method = "SAPLA"
	}
	if c.M <= 0 {
		c.M = 12
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxK <= 0 {
		c.MaxK = 128
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.SyncEvery <= 0 {
		c.SyncEvery = 1
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 5 * time.Minute
	}
	if c.MaxInflightSearch <= 0 {
		c.MaxInflightSearch = 256
	}
	if c.MaxInflightWrite <= 0 {
		c.MaxInflightWrite = 256
	}
	return c
}

// Server lifecycle states reported by /readyz.
const (
	stateRecovering int32 = iota // replaying the WAL at startup
	stateReady                   // serving
	stateDraining                // Shutdown in progress; in-flight requests finish
)

// stateName renders a lifecycle state for /readyz and error bodies.
func stateName(st int32) string {
	switch st {
	case stateRecovering:
		return "recovering"
	case stateDraining:
		return "draining"
	default:
		return "ready"
	}
}

// shardState is one shard's write-side state. mu serializes the commit
// protocol for series owned by this shard: the WAL append and the index
// mutation happen under one hold, so a snapshot capturing flat while rotating
// the shard's WAL segment (also under mu) sees exactly the state the sealed
// segment covers. Searches never take it — they read flat under the index's
// shared lock, which the WAL fsync therefore never holds — and writes to
// different shards never contend on it. flat is mutated only through
// s.idx.Shard(i) while mu is held, so holding mu is enough to read it.
//
// Lock order: a holder of mu may take the shard's index lock and its store's
// lock, never Server.bookMu.
type shardState struct {
	mu        sync.Mutex
	store     *wal.Store // this shard's WAL stream; nil without durability
	flat      *index.Flat
	snapshots expvar.Int // snapshots of this shard installed
}

// Server is the similarity-search HTTP service. Create with New, mount via
// Handler, run with Serve, stop with Shutdown.
type Server struct {
	cfg     Config
	idx     *index.ShardedIndex
	metrics metrics
	handler http.Handler

	// state is the lifecycle (recovering → ready → draining) gate /readyz
	// and the API middleware read.
	state atomic.Int32

	// searchSem/writeSem are the admission semaphores: a buffered slot per
	// admissible request, acquired non-blocking so saturation sheds (429)
	// instead of queueing.
	searchSem chan struct{}
	writeSem  chan struct{}

	// shards holds the per-shard write state, one entry per effective shard
	// (the manifest-pinned count with durability, Config.Shards without).
	// Shard membership is index.ShardOf(id, len(shards)).
	shards      []*shardState
	recovery    wal.RecoveryInfo
	recoveryDur time.Duration
	snapStop    chan struct{}
	snapWG      sync.WaitGroup
	stopOnce    sync.Once

	// bookMu guards the cross-shard ingest bookkeeping: the IDs of in-flight
	// ingests (committed ones are their shards' to refuse), the fixed series
	// length, and the auto-ID counter, which exceeds every ID ever claimed or
	// recovered — so an auto ID is never in flight or committed. Searches and
	// /metrics take it too, briefly, to read the series length (seriesLen);
	// its holders take no other lock.
	bookMu  sync.Mutex
	claimed map[int]bool
	n       int // series length, fixed by the first ingest
	nextID  int

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// shardFor returns the shard state owning id.
func (s *Server) shardFor(id int) *shardState {
	return s.shards[index.ShardOf(id, len(s.shards))]
}

// durable reports whether the server runs with a WAL.
func (s *Server) durable() bool { return s.shards[0].store != nil }

// New builds a Server over one empty flat tier per shard.
// With durability configured (DataDir or WALFS) it first recovers the
// persisted state — every shard's newest snapshot plus WAL replay, shards in
// parallel — batch-inserts it into the tiers, and only then reports ready; a
// corrupt snapshot or a torn non-final WAL segment in any shard fails
// construction rather than serving silently incomplete data.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Method != "SAPLA" {
		return nil, errors.New("server: only the SAPLA method is served")
	}
	s := &Server{
		cfg:       cfg,
		metrics:   metrics{start: time.Now()},
		claimed:   make(map[int]bool),
		searchSem: make(chan struct{}, cfg.MaxInflightSearch),
		writeSem:  make(chan struct{}, cfg.MaxInflightWrite),
		snapStop:  make(chan struct{}),
	}
	s.state.Store(stateRecovering)

	if err := s.openStores(); err != nil {
		return nil, err
	}
	idx, err := index.NewSharded(len(s.shards), func(i int) (index.Index, error) {
		return s.shards[i].flat, nil
	})
	if err != nil {
		s.closeStores()
		return nil, err
	}
	s.idx = idx
	s.handler = s.buildHandler()
	if s.durable() && cfg.SnapshotEvery > 0 {
		s.snapWG.Add(1)
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	s.state.Store(stateReady)
	return s, nil
}

// Handler returns the root handler: the API routes, each wrapped by api,
// plus /healthz, /readyz, /metrics and /debug/pprof.
func (s *Server) Handler() http.Handler { return s.handler }

// buildHandler wires the mux.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/ingest", s.api(epIngest, s.writeSem, s.handleIngest))
	mux.HandleFunc("POST /v1/ingest/batch", s.api(epIngestBatch, s.writeSem, s.handleIngestBatch))
	mux.HandleFunc("POST /v1/knn", s.api(epKNN, s.searchSem, s.handleKNN))
	mux.HandleFunc("POST /v1/knn/batch", s.api(epKNNBatch, s.searchSem, s.handleKNNBatch))
	mux.HandleFunc("POST /v1/range", s.api(epRange, s.searchSem, s.handleRange))
	mux.HandleFunc("DELETE /v1/series/{id}", s.api(epDelete, s.writeSem, s.handleDelete))

	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.metricsHandler)

	// pprof wired explicitly so nothing leaks onto http.DefaultServeMux and
	// profiles are not subject to the API request timeout.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	return mux
}

// api wraps an API route's handler h in one request's steps, in order:
//
//  1. a deadline RequestTimeout away bounds the context (a search sees it
//     between queries, a write before it claims IDs: 503) and the body read,
//     so a client that trickles its body cannot hold a slot past the budget;
//  2. the clock starts and the writer records the status;
//  3. a server that is not ready answers 503;
//  4. the request takes a slot of its class's admission semaphore without
//     waiting, or sheds with 429 and Retry-After: overload degrades into
//     fast, explicit rejections, not latency for every admitted request. It
//     keeps the slot until its answer is counted, so timed-out work stays
//     admitted work;
//  5. the body is bounded by MaxBodyBytes;
//  6. h answers;
//  7. the answer is counted and timed against ep, sheds and 503s included.
func (s *Server) api(ep endpoint, sem chan struct{}, h http.HandlerFunc) http.HandlerFunc {
	m := &s.metrics.endpoints[ep]
	return func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Now().Add(s.cfg.RequestTimeout)
		ctx, cancel := context.WithDeadline(r.Context(), deadline)
		defer cancel()
		_ = http.NewResponseController(w).SetReadDeadline(deadline) //sapla:errok a writer without a connection (a handler benchmark's recorder) reads its body unbounded
		r = r.WithContext(ctx)

		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if st := s.state.Load(); st != stateReady {
			sw.Header().Set("Retry-After", "1")
			writeErr(sw, http.StatusServiceUnavailable, "server is %s", stateName(st))
		} else {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
				h(sw, r)
			default:
				m.shed.Add(1)
				sw.Header().Set("Retry-After", "1")
				writeErr(sw, http.StatusTooManyRequests, "server is saturated, retry later")
			}
		}
		m.observe(sw.status, time.Since(start))
	}
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// seriesLen returns the fixed series length (0 before the first ingest).
func (s *Server) seriesLen() int {
	s.bookMu.Lock()
	n := s.n
	s.bookMu.Unlock()
	return n
}

// Index exposes the sharded index (read-mostly; used by tests and the CLI
// for diagnostics).
func (s *Server) Index() *index.ShardedIndex { return s.idx }

// Serve blocks serving l until Shutdown. http.ErrServerClosed signals a
// clean stop.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{
		Handler: s.handler,
		// Header read and idle bounds; per-request work is bounded by the
		// API routes' request context, and pprof profiles may legitimately
		// stream for longer than any single API call.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// closeStores closes every shard's WAL store (construction unwind).
func (s *Server) closeStores() {
	for _, sh := range s.shards {
		if sh.store != nil {
			_ = sh.store.Close() //sapla:errok unwinding a failed construction; the constructor's error is the one reported
		}
	}
}

// Shutdown gracefully stops the server: new requests are refused (503,
// draining), in-flight requests drain until ctx expires, the snapshot
// ticker stops, and every shard's WAL is flushed, fsync'd and
// closed — so every acknowledged write is durable across a clean restart
// even with a large group-commit batch.
func (s *Server) Shutdown(ctx context.Context) error {
	s.state.CompareAndSwap(stateReady, stateDraining)

	var err error
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}

	s.stopOnce.Do(func() { close(s.snapStop) })
	s.snapWG.Wait()

	for _, sh := range s.shards {
		if sh.store == nil {
			continue
		}
		if serr := sh.store.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := sh.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
