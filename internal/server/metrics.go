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
var latencyBuckets = []time.Duration{
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

// histogram is a fixed-bucket latency histogram safe for concurrent use.
// It implements expvar.Var so it can sit in an expvar.Map.
type histogram struct {
	count   atomic.Uint64
	sumNano atomic.Uint64
	buckets []atomic.Uint64 // len(latencyBuckets)+1: trailing overflow bucket
}

// newHistogram returns an empty histogram.
func newHistogram() *histogram {
	return &histogram{buckets: make([]atomic.Uint64, len(latencyBuckets)+1)}
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
	counts := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		s.Buckets[bucketLabel(i)] = counts[i]
	}
	if s.Count > 0 {
		s.MeanMs = float64(h.sumNano.Load()) / float64(s.Count) / 1e6
		s.P50Ms = quantile(counts, s.Count, 0.50)
		s.P95Ms = quantile(counts, s.Count, 0.95)
		s.P99Ms = quantile(counts, s.Count, 0.99)
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
			if i == len(latencyBuckets) {
				return float64(latencyBuckets[len(latencyBuckets)-1].Nanoseconds()) / 1e6
			}
			return float64(latencyBuckets[i].Nanoseconds()) / 1e6
		}
	}
	return 0
}

// String implements expvar.Var.
func (h *histogram) String() string {
	b, err := json.Marshal(h.snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

// metrics aggregates the server's counters. All vars are unpublished expvar
// values (no global expvar.Publish, so many servers can coexist in one
// process, e.g. under test); the /metrics handler renders them as one JSON
// document.
type metrics struct {
	start time.Time

	requests *expvar.Map // per-endpoint request counts
	errors   *expvar.Map // per-endpoint non-2xx counts
	shed     *expvar.Map // per-endpoint 429 load-shed counts
	latency  map[string]*histogram

	ingested expvar.Int // series accepted
	deleted  expvar.Int // series removed

	// Request bodies by the decoder that took them: the hand-written scanner
	// or, for anything outside its subset, encoding/json at about 3× the cost.
	decodeFast     expvar.Int
	decodeFallback expvar.Int

	// Durability instrumentation (zero when the WAL is disabled).
	// snapshots sums across shards; shardSnapshots[i] counts shard i's.
	walSync        *histogram // WAL fsync latency, the write-path floor
	snapshots      expvar.Int // snapshots installed
	snapshotErrors expvar.Int // snapshot sweeps that failed
	snapshotTime   *histogram // snapshot write duration
	shardSnapshots []expvar.Int

	// Cumulative GEMINI search work, the numerators/denominator of the
	// paper's pruning power ρ (Eq. 14): measured / candidates is the
	// fraction of stored series a query had to fetch for exact distances.
	queries      expvar.Int
	measured     expvar.Int
	filtered     expvar.Int
	nodesVisited expvar.Int
	candidates   expvar.Int // sum of index size at query time
}

// endpoint names used as metric keys.
var endpointNames = []string{"ingest", "ingest_batch", "knn", "knn_batch", "range", "delete"}

func newMetrics(nshards int) *metrics {
	m := &metrics{
		start:          time.Now(),
		requests:       new(expvar.Map).Init(),
		errors:         new(expvar.Map).Init(),
		shed:           new(expvar.Map).Init(),
		latency:        make(map[string]*histogram, len(endpointNames)),
		walSync:        newHistogram(),
		snapshotTime:   newHistogram(),
		shardSnapshots: make([]expvar.Int, nshards),
	}
	for _, name := range endpointNames {
		m.latency[name] = newHistogram()
	}
	return m
}

// observe records one finished request against an endpoint.
func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	m.requests.Add(endpoint, 1)
	if status >= 400 {
		m.errors.Add(endpoint, 1)
	}
	if h, ok := m.latency[endpoint]; ok {
		h.Observe(d)
	}
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

// handler serves the /metrics JSON document.
func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	doc := map[string]json.RawMessage{}
	raw := func(v expvar.Var) json.RawMessage { return json.RawMessage(v.String()) }

	doc["uptime_seconds"] = mustJSON(time.Since(m.start).Seconds())
	doc["requests"] = raw(m.requests)
	doc["errors"] = raw(m.errors)
	doc["shed"] = raw(m.shed)
	doc["decode"] = mustJSON(map[string]any{
		"fast":     m.decodeFast.Value(),
		"fallback": m.decodeFallback.Value(),
	})

	lat := map[string]json.RawMessage{}
	for name, h := range m.latency {
		lat[name] = json.RawMessage(h.String())
	}
	doc["latency"] = mustJSON(lat)

	var pruning float64
	if c := m.candidates.Value(); c > 0 {
		pruning = float64(m.measured.Value()) / float64(c)
	}
	doc["search"] = mustJSON(map[string]any{
		"queries":       m.queries.Value(),
		"measured":      m.measured.Value(),
		"filtered":      m.filtered.Value(),
		"nodes_visited": m.nodesVisited.Value(),
		"candidates":    m.candidates.Value(),
		"pruning_ratio": pruning,
	})

	doc["index"] = mustJSON(map[string]any{
		"size":          s.idx.Len(),
		"epoch":         s.idx.Epoch(),
		"shards":        s.idx.NumShards(),
		"method":        s.cfg.Method,
		"coeff_budget":  s.cfg.M,
		"series_length": s.seriesLen(),
		"ingested":      m.ingested.Value(),
		"deleted":       m.deleted.Value(),
	})

	// Per-shard slice of the index and (when durable) WAL state, so an
	// operator can see a hot or snapshot-lagging shard instead of an
	// averaged-away aggregate.
	shardDocs := make([]map[string]any, len(s.shards))
	for i, shState := range s.shards {
		sh := s.idx.Shard(i)
		sd := map[string]any{
			"size":  sh.Len(),
			"epoch": sh.Epoch(),
		}
		if shState.store != nil {
			sd["wal_unsynced"] = shState.store.Unsynced()
			sd["snapshot_seq"] = shState.store.SnapshotSeq()
			sd["snapshots"] = m.shardSnapshots[i].Value()
		}
		shardDocs[i] = sd
	}
	doc["shards"] = mustJSON(shardDocs)

	if s.durable() {
		t := s.walTotals()
		doc["durability"] = mustJSON(map[string]any{
			"wal_fsync":            json.RawMessage(m.walSync.String()),
			"wal_streams":          len(s.shards),
			"wal_unsynced":         t.unsynced,
			"wal_records_decimal":  t.forms.Decimal,
			"wal_records_f64":      t.forms.F64,
			"snapshot_seq":         t.snapSeq,
			"snapshots":            m.snapshots.Value(),
			"snapshot_errors":      m.snapshotErrors.Value(),
			"snapshot_write":       json.RawMessage(m.snapshotTime.String()),
			"recovery_replayed":    s.recovery.Replayed,
			"recovery_snapshot":    s.recovery.SnapshotSeries,
			"recovery_torn_bytes":  s.recovery.TornBytes,
			"recovery_duration_ms": float64(s.recoveryDur.Nanoseconds()) / 1e6,
			"sync_every":           s.cfg.SyncEvery,
		})
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //sapla:errok status line already sent; a failed write means the client went away
}

// mustJSON marshals v, which is built from plain maps and numbers and
// cannot fail.
func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return json.RawMessage(`null`)
	}
	return b
}
