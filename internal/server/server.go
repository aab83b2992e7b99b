// Package server exposes the SAPLA similarity-search engine as a
// long-running HTTP service: series are ingested (reduced and appended to a
// flat filter-and-refine tier, index.Flat, behind a ShardedIndex) while
// k-NN, batch k-NN and ε-range queries are answered concurrently, every
// fan-out on par.Do. The service is the north-star serving path: reads
// take shared locks and reuse pooled workspaces (no per-request index
// rebuild, allocation-free search hot path), writes serialize per shard, and
// shutdown drains in-flight requests.
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
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sapla/internal/core"
	"sapla/internal/index"
	"sapla/internal/tsio"
	"sapla/internal/wal"
)

// Config tunes one Server. The zero value is usable: every field falls back
// to the default documented on it.
type Config struct {
	// Method names the reduction method. Only "SAPLA" (the default, also
	// spelled "") is served; New refuses every other name. The field (and
	// sapla-serve's -method) stays only because bench/ still sets it.
	Method string
	// M is the per-series coefficient budget. Default 12 (4 segments).
	M int
	// Shards partitions the index (and, with durability, the WAL) across
	// this many independent shards keyed by a stable hash of the series ID.
	// Default 1. With durability enabled the count persisted in the data
	// directory's manifest wins over this value: records already routed
	// under the persisted count, and reopening under another would replay
	// them into the wrong shards.
	Shards int
	// Workers bounds every request's par.Do fan-out: the queries of
	// /v1/knn/batch (a query is one task, whatever the shard count) and the
	// reductions of batch ingest and batch k-NN. Default 0 = GOMAXPROCS.
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
	// it (ROADMAP item 2a).
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
	mu    sync.Mutex
	store *wal.Store // this shard's WAL stream; nil without durability
	flat  *index.Flat
}

// Server is the similarity-search HTTP service. Create with New, mount via
// Handler, run with Serve/ListenAndServe, stop with Shutdown.
type Server struct {
	cfg     Config
	idx     *index.ShardedIndex
	metrics *metrics
	handler http.Handler

	// reducers pools the allocation-free SAPLA reduction workspaces the
	// ingest and recovery paths borrow (core.Reducer is single-goroutine).
	reducers sync.Pool
	// repTag names the reducer behind every representation this server
	// computes: the tag it logs beside them, and the only one under which
	// recovery loads a logged representation instead of reducing again.
	repTag tsio.RepTag

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

	// recoveryLoaded and recoveryReduced count, over every shard, the
	// recovered series whose representation came from the log and those
	// recovery reduced again.
	recoveryLoaded, recoveryReduced int

	// bookMu guards the cross-shard ingest bookkeeping: the IDs of in-flight
	// ingests (committed ones are their shards' to refuse), the fixed series
	// length, and the auto-ID counter, which exceeds every ID ever claimed or
	// recovered — so an auto ID is never in flight or committed. Search paths
	// never take bookMu, and its holders take no other lock.
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
		repTag:    tsio.RepTag{Method: tsio.RepSAPLA, Gen: core.Generation, M: uint32(cfg.M)},
		metrics:   nil, // sized after the effective shard count is known
		claimed:   make(map[int]bool),
		searchSem: make(chan struct{}, cfg.MaxInflightSearch),
		writeSem:  make(chan struct{}, cfg.MaxInflightWrite),
		snapStop:  make(chan struct{}),
	}
	s.state.Store(stateRecovering)
	s.reducers.New = func() any { return core.NewReducer() }

	err := s.openStores()
	if err != nil {
		return nil, err
	}
	s.metrics = newMetrics(len(s.shards))
	s.idx, err = index.NewSharded(len(s.shards), func(i int) (index.Index, error) {
		return s.shards[i].flat, nil
	})
	if err != nil {
		s.closeStores()
		return nil, err
	}
	s.handler = s.buildHandler()
	if s.durable() && cfg.SnapshotEvery > 0 {
		s.snapWG.Add(1)
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	s.state.Store(stateReady)
	return s, nil
}

// Handler returns the root handler: API routes wrapped with metrics, body
// limits and per-request timeouts, plus /healthz, /metrics and
// /debug/pprof.
func (s *Server) Handler() http.Handler { return s.handler }

// buildHandler wires the mux.
func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()

	api := func(endpoint string, sem chan struct{}, h http.HandlerFunc) http.Handler {
		limited := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
			h(w, r)
		})
		timed := http.TimeoutHandler(limited, s.cfg.RequestTimeout,
			`{"error":"request timed out"}`)
		admitted := s.admit(endpoint, sem, timed)
		return s.instrument(endpoint, admitted)
	}

	mux.Handle("POST /v1/ingest", api("ingest", s.writeSem, s.handleIngest))
	mux.Handle("POST /v1/ingest/batch", api("ingest_batch", s.writeSem, s.handleIngestBatch))
	mux.Handle("POST /v1/knn", api("knn", s.searchSem, s.handleKNN))
	mux.Handle("POST /v1/knn/batch", api("knn_batch", s.searchSem, s.handleKNNBatch))
	mux.Handle("POST /v1/range", api("range", s.searchSem, s.handleRange))
	mux.Handle("DELETE /v1/series/{id}", api("delete", s.writeSem, s.handleDelete))

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

// admit gates h behind the endpoint class's admission semaphore and the
// lifecycle state. A saturated class sheds immediately with 429 and a
// Retry-After hint — bounded work over unbounded queueing, so overload
// degrades into fast, explicit rejections instead of collapsing latency for
// every admitted request. A non-ready server answers 503.
func (s *Server) admit(endpoint string, sem chan struct{}, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if st := s.state.Load(); st != stateReady {
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "server is %s", stateName(st))
			return
		}
		select {
		case sem <- struct{}{}:
			defer func() { <-sem }()
		default:
			s.metrics.shed.Add(endpoint, 1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests,
				"server is saturated, retry later")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// instrument wraps h with request counting and latency observation.
func (s *Server) instrument(endpoint string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		s.metrics.observe(endpoint, sw.status, time.Since(start))
	})
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
	defer s.bookMu.Unlock()
	return s.n
}

// Index exposes the sharded index (read-mostly; used by tests and the CLI
// for diagnostics).
func (s *Server) Index() *index.ShardedIndex { return s.idx }

// ListenAndServe serves on addr until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve blocks serving l until Shutdown. http.ErrServerClosed signals a
// clean stop.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{
		Handler: s.handler,
		// Header read and idle bounds; per-request work is bounded by the
		// API TimeoutHandler, and pprof profiles may legitimately stream
		// for longer than any single API call.
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
