package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"sapla/internal/index"
)

// latencyBuckets are the histogram upper bounds. Exponential-ish spacing
// from 50µs to 1s covers everything from a warm k-NN hit to a cold batch.
var latencyBuckets = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
}

// histogram is a fixed-bucket latency histogram safe for concurrent use and
// ready at its zero value.
type histogram struct {
	count   atomic.Uint64
	sumNano atomic.Uint64
	buckets [len(latencyBuckets) + 1]atomic.Uint64 // trailing overflow bucket
}

// Observe records one duration.
func (h *histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNano.Add(uint64(d.Nanoseconds()))
	for i, ub := range latencyBuckets {
		if d <= ub {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(latencyBuckets)].Add(1)
}

// histSnapshot is the JSON form of a histogram.
type histSnapshot struct {
	Count   uint64            `json:"count"`
	MeanMs  float64           `json:"mean_ms"`
	P50Ms   float64           `json:"p50_ms"`
	P95Ms   float64           `json:"p95_ms"`
	P99Ms   float64           `json:"p99_ms"`
	Buckets map[string]uint64 `json:"buckets"`
}

// snapshot captures a consistent-enough view of the histogram (counters are
// read individually; metrics are advisory, not transactional).
func (h *histogram) snapshot() histSnapshot {
	var s histSnapshot
	s.Count = h.count.Load()
	s.Buckets = make(map[string]uint64, len(h.buckets))
	var counts [len(latencyBuckets) + 1]uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		s.Buckets[bucketLabel(i)] = counts[i]
	}
	if s.Count > 0 {
		s.MeanMs = float64(h.sumNano.Load()) / float64(s.Count) / 1e6
		s.P50Ms = quantile(counts[:], s.Count, 0.50)
		s.P95Ms = quantile(counts[:], s.Count, 0.95)
		s.P99Ms = quantile(counts[:], s.Count, 0.99)
	}
	return s
}

// bucketLabel names bucket i by its upper bound.
func bucketLabel(i int) string {
	if i == len(latencyBuckets) {
		return "+inf"
	}
	ub := latencyBuckets[i]
	if ub < time.Millisecond {
		return fmt.Sprintf("le_%dus", ub.Microseconds())
	}
	return fmt.Sprintf("le_%dms", ub.Milliseconds())
}

// quantile returns the upper bound (in ms) of the bucket where the q-th
// fraction of observations falls — a coarse but monotone estimate.
func quantile(counts []uint64, total uint64, q float64) float64 {
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > target {
			return float64(latencyBuckets[min(i, len(latencyBuckets)-1)].Nanoseconds()) / 1e6
		}
	}
	return 0
}

// endpoint is an API route; it indexes the per-endpoint metrics table.
type endpoint int

const (
	epIngest endpoint = iota
	epIngestBatch
	epKNN
	epKNNBatch
	epRange
	epDelete
	numEndpoints
)

// endpointNames are the endpoints' metric keys.
var endpointNames = [numEndpoints]string{"ingest", "ingest_batch", "knn", "knn_batch", "range", "delete"}

// endpointMetrics counts one endpoint's requests.
type endpointMetrics struct {
	requests expvar.Int // answered requests, sheds and 503s included
	errors   expvar.Int // non-2xx answers
	shed     expvar.Int // 429 load sheds
	latency  histogram
}

// metrics aggregates the server's counters, every one ready at its zero
// value. Nothing is published (no global expvar.Publish, so many servers can
// coexist in one process, e.g. under test); the /metrics handler renders the
// counters as one JSON document. Each shard's snapshot count is its
// shardState's.
type metrics struct {
	start time.Time

	endpoints [numEndpoints]endpointMetrics

	ingested expvar.Int // series accepted
	deleted  expvar.Int // series removed

	// Request bodies by the decoder that took them: the hand-written scanner
	// or, for anything outside its subset, encoding/json at about 3× the cost.
	decodeFast     expvar.Int
	decodeFallback expvar.Int

	// Durability instrumentation (zero when the WAL is disabled).
	walSync        histogram  // WAL fsync latency, the write-path floor
	snapshots      expvar.Int // snapshots installed, summed across shards
	snapshotErrors expvar.Int // snapshot sweeps that failed
	snapshotTime   histogram  // snapshot write duration

	// Cumulative GEMINI search work, the numerators/denominator of the
	// paper's pruning power ρ (Eq. 14): measured / candidates is the
	// fraction of stored series a query had to fetch for exact distances.
	queries      expvar.Int
	measured     expvar.Int
	filtered     expvar.Int
	nodesVisited expvar.Int
	candidates   expvar.Int // sum of index size at query time
}

// observe records one finished request.
func (e *endpointMetrics) observe(status int, d time.Duration) {
	e.requests.Add(1)
	if status >= 400 {
		e.errors.Add(1)
	}
	e.latency.Observe(d)
}

// addSearch accumulates st, the summed stats of nq queries run against an
// index of size at query time.
func (m *metrics) addSearch(nq int, st index.SearchStats, size int) {
	m.queries.Add(int64(nq))
	m.measured.Add(int64(st.Measured))
	m.filtered.Add(int64(st.Filtered))
	m.nodesVisited.Add(int64(st.NodesVisited))
	m.candidates.Add(int64(nq) * int64(size))
}

// metricsHandler serves the /metrics JSON document. A request, error or shed
// count is listed once it is non-zero.
func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	m := &s.metrics
	requests, errs, shed := map[string]int64{}, map[string]int64{}, map[string]int64{}
	latency := make(map[string]histSnapshot, numEndpoints)
	for ep := range m.endpoints {
		e, name := &m.endpoints[ep], endpointNames[ep]
		putNonZero(requests, name, e.requests.Value())
		putNonZero(errs, name, e.errors.Value())
		putNonZero(shed, name, e.shed.Value())
		latency[name] = e.latency.snapshot()
	}

	var pruning float64
	if c := m.candidates.Value(); c > 0 {
		pruning = float64(m.measured.Value()) / float64(c)
	}
	doc := map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"requests":       requests,
		"errors":         errs,
		"shed":           shed,
		"decode": map[string]int64{
			"fast":     m.decodeFast.Value(),
			"fallback": m.decodeFallback.Value(),
		},
		"latency": latency,
		"search": map[string]any{
			"queries":       m.queries.Value(),
			"measured":      m.measured.Value(),
			"filtered":      m.filtered.Value(),
			"nodes_visited": m.nodesVisited.Value(),
			"candidates":    m.candidates.Value(),
			"pruning_ratio": pruning,
		},
		"index": map[string]any{
			"size":          s.idx.Len(),
			"epoch":         s.idx.Epoch(),
			"shards":        s.idx.NumShards(),
			"method":        s.cfg.Method,
			"coeff_budget":  s.cfg.M,
			"series_length": s.seriesLen(),
			"ingested":      m.ingested.Value(),
			"deleted":       m.deleted.Value(),
		},
	}

	// Per-shard slice of the index and (when durable) WAL state, so an
	// operator can see a hot or snapshot-lagging shard instead of an
	// averaged-away aggregate.
	shardDocs := make([]map[string]any, len(s.shards))
	for i, sh := range s.shards {
		sd := map[string]any{"size": s.idx.Shard(i).Len(), "epoch": s.idx.Shard(i).Epoch()}
		if sh.store != nil {
			sd["wal_unsynced"] = sh.store.Unsynced()
			sd["snapshot_seq"] = sh.store.SnapshotSeq()
			sd["snapshots"] = sh.snapshots.Value()
		}
		shardDocs[i] = sd
	}
	doc["shards"] = shardDocs

	if s.durable() {
		t := s.walTotals()
		doc["durability"] = map[string]any{
			"wal_fsync":            m.walSync.snapshot(),
			"wal_streams":          len(s.shards),
			"wal_unsynced":         t.unsynced,
			"wal_records_decimal":  t.forms.Decimal,
			"wal_records_f64":      t.forms.F64,
			"snapshot_seq":         t.snapSeq,
			"snapshots":            m.snapshots.Value(),
			"snapshot_errors":      m.snapshotErrors.Value(),
			"snapshot_write":       m.snapshotTime.snapshot(),
			"recovery_replayed":    s.recovery.Replayed,
			"recovery_snapshot":    s.recovery.SnapshotSeries,
			"recovery_torn_bytes":  s.recovery.TornBytes,
			"recovery_duration_ms": float64(s.recoveryDur.Nanoseconds()) / 1e6,
			"sync_every":           s.cfg.SyncEvery,
		}
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //sapla:errok status line already sent; a failed write means the client went away
}

// putNonZero sets dst[name] to a non-zero count v.
func putNonZero(dst map[string]int64, name string, v int64) {
	if v != 0 {
		dst[name] = v
	}
}
