package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/index"
	"sapla/internal/repr"
	"sapla/internal/server"
	"sapla/internal/ts"
	"sapla/internal/tsio"
	"sapla/internal/wal"
)

// The traced run answers "where does the time go". Its first half is a
// shortened child-process run (raw wall figures, the server's own counters,
// recovery). Its second half replays the same request lists against an
// identically configured in-process server three ways — over loopback,
// straight into Handler().ServeHTTP, and by hand through each layer's
// public functions in handler order — recording a span around every call.
// Every in-process figure below is derived from those spans.

// layers holds the in-process half of a traced run.
type layers struct {
	in  *inputs
	tr  *tracer
	tmp string

	srv  *server.Server
	base string // loopback URL of srv
	cn   *conn

	// Bench-owned copies of what the handlers drive, for the by-hand replay.
	idx    *index.ShardedIndex
	stores []*wal.Store
	red    *core.Reducer
	ws     *index.Workspace

	nextRequest   int
	allocs        map[string]allocRate // per class, from the handler replays
	fragmentation float64              // of the bench-owned index after the write replays
	findings      []string
}

// allocRate is heap allocation per request of a handler replay.
type allocRate struct{ mallocs, kib float64 }

func serverConfig(dir string, shards int) server.Config {
	return server.Config{
		Method: "SAPLA", M: 12, Shards: shards,
		DataDir: dir, SyncEvery: 1,
		SnapshotEvery: 24 * time.Hour, CompactEvery: -time.Second,
	}
}

// tracedRun produces the per-layer metrics.
func tracedRun(ctx context.Context, e env, in *inputs, span time.Duration) (*report, error) {
	// Child-process half: a quarter of the rounds over a third of the span
	// (a racing round is the longer one), no extra set-ups. A restart follows
	// every second round but not the last ones: the server's counters start
	// again with the process, and they are read after the last round.
	rounds := max(in.spec.rounds/4, 3)
	out, err := runServer(ctx, e, in, plan{span: span / 3, rounds: rounds, restarts: max((rounds-1)/2, 1), race: in.spec.raceInTrace})
	if err != nil {
		return nil, err
	}
	m := wallMetrics(in, out)
	if err := serverCounters(m, out.metrics); err != nil {
		return nil, err
	}

	l := &layers{in: in, tr: newTracer(), tmp: e.tmp, cn: newConn(), red: core.NewReducer(), ws: index.NewWorkspace(),
		allocs: make(map[string]allocRate)}
	defer l.close()
	if err := l.run(ctx, m, out); err != nil {
		return nil, err
	}

	return &report{
		spans:     l.tr.spans,
		Attempted: out.attempted,
		Failed:    out.failed,
		Findings:  append(out.findings, l.findings...),
		Metrics:   m,
		Manifest:  map[string]any{"run_span_s": out.span.Seconds(), "samples": sampleCounts(out), "spans": len(l.tr.spans)},
	}, nil
}

// serverCounters copies what only the server can count from its /metrics
// document (taken after the last round of the child-process half).
func serverCounters(m map[string]metric, doc []byte) error {
	var d struct {
		Requests map[string]float64 `json:"requests"`
		Errors   map[string]float64 `json:"errors"`
		Shed     map[string]float64 `json:"shed"`
		Index    struct {
			ReadRetries    float64 `json:"read_retries"`
			ReclaimLag     float64 `json:"reclaim_lag_slots"`
			WriterThrottle float64 `json:"writer_throttle"`
			Tree           struct {
				Height    float64 `json:"height"`
				LeafNodes float64 `json:"leaf_nodes"`
			} `json:"tree"`
		} `json:"index"`
		Durability struct {
			Fsync struct {
				Count float64 `json:"count"`
			} `json:"wal_fsync"`
		} `json:"durability"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	sum := func(m map[string]float64) (s float64) {
		for _, v := range m {
			s += v
		}
		return s
	}
	m["http.shed_429"] = metric{sum(d.Shed), "count"}
	m["http.errors"] = metric{sum(d.Errors), "count"}
	m["index.read_retries"] = metric{d.Index.ReadRetries, "count"}
	m["index.reclaim_lag_slots"] = metric{d.Index.ReclaimLag, "count"}
	m["index.writer_throttle"] = metric{d.Index.WriterThrottle, "count"}
	m["index.tree_height"] = metric{d.Index.Tree.Height, "count"}
	m["index.leaf_nodes"] = metric{d.Index.Tree.LeafNodes, "count"}
	// Counted since the last restart; a batch costs one fsync per shard it
	// touches.
	writes := d.Requests["ingest"] + d.Requests["ingest_batch"] + d.Requests["delete"]
	m["wal.fsyncs_per_write"] = metric{d.Durability.Fsync.Count / max(writes, 1), "ratio"}
	return nil
}

// close releases the bench-owned WAL stores.
func (l *layers) close() {
	for _, st := range l.stores {
		_ = st.Close() // scratch data
	}
}

// timed runs f inside a span.
func (l *layers) timed(name string, request, parent int, f func() error) error {
	id := l.tr.begin(name, request, parent)
	err := f()
	l.tr.end(id)
	return err
}

func (l *layers) request() int {
	l.nextRequest++
	return l.nextRequest
}

// viaLoopback sends one request over the loopback connection inside a root
// span.
func (l *layers) viaLoopback(name string, req *request) error {
	return l.timed(name, l.request(), -1, func() error {
		_, status, body, err := l.cn.do(l.base, req)
		if err == nil && status != req.want {
			err = fmt.Errorf("%s: status %d: %.200s", name, status, body)
		}
		return err
	})
}

// viaHandler calls the server's root handler directly inside a root span.
func (l *layers) viaHandler(name string, req *request) error {
	hr := httptest.NewRequest(req.method, req.path, strings.NewReader(string(req.body)))
	rec := httptest.NewRecorder()
	return l.timed(name, l.request(), -1, func() error {
		l.srv.Handler().ServeHTTP(rec, hr)
		if rec.Code != req.want {
			return fmt.Errorf("%s: status %d: %.200s", name, rec.Code, rec.Body.String())
		}
		return nil
	})
}

// run is the in-process half.
func (l *layers) run(ctx context.Context, m map[string]metric, child *outcome) error {
	in, sp := l.in, l.in.spec

	// An in-process server configured like the child, loaded the same way.
	dir := filepath.Join(l.tmp, "inproc")
	var err error
	if l.srv, err = server.New(serverConfig(dir, sp.shards)); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	l.base = "http://" + ln.Addr().String()
	served := make(chan error, 1)
	go func() { served <- l.srv.Serve(ln) }()
	defer func() {
		l.cn.close()
		// The drain must outlive a cancelled run, so it keeps ctx's values
		// but not its cancellation.
		stop, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		_ = l.srv.Shutdown(stop) // scratch data; nothing to salvage on a failed close
		cancel()
		<-served
	}()
	for i := range in.load {
		if err := l.viaHandler("load:server.handler", &in.load[i]); err != nil {
			return err
		}
	}

	// Recovery, layer by layer, on copies of that data directory: WAL
	// replay, reduce every series, bulk-load each shard — against the whole
	// (server.New on another copy).
	if err := l.recovery(dir, m); err != nil {
		return err
	}

	// The three-way replay of every traffic class.
	if err := l.replaySearch(ctx); err != nil {
		return err
	}
	if err := l.kernels(); err != nil {
		return err
	}
	if err := l.replayWrites(); err != nil {
		return err
	}
	l.maintenance()

	// Tracing overhead: the by-hand k-NN replay once more with tracing off.
	st := selfTimes(l.tr.spans)
	traced := st["knn:manual"].TotalNS + st["knn:index.scatter"].TotalNS
	start := time.Now()
	saved := l.tr
	l.tr = nil
	err = l.manualKNN(ctx)
	l.tr = saved
	if err != nil {
		return err
	}
	untraced := time.Since(start)
	m["trace.overhead_ratio"] = metric{float64(traced)/float64(untraced) - 1, "ratio"}

	l.derive(m, child)
	return nil
}

// copyDir copies the regular files of src into a fresh directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			_ = in.Close() // only read
			return err
		}
		_, err = io.Copy(out, in)
		_ = in.Close() // only read
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// recovery times recovery's layers one by one and builds the bench-owned
// index and WAL stores from the result.
func (l *layers) recovery(dir string, m map[string]metric) error {
	sp := l.in.spec
	whole, parts := filepath.Join(l.tmp, "recover-whole"), filepath.Join(l.tmp, "recover-parts")
	if err := copyDir(dir, whole); err != nil {
		return err
	}
	if err := copyDir(dir, parts); err != nil {
		return err
	}
	m["wal.bytes_per_series"] = metric{float64(dirBytes(dir)) / float64(sp.n), "bytes"}

	req := l.request()
	err := l.timed("recovery:server.New", req, -1, func() error {
		s, err := server.New(serverConfig(whole, sp.shards))
		if err != nil {
			return err
		}
		return s.Shutdown(context.Background())
	})
	if err != nil {
		return err
	}

	root := l.tr.begin("recovery:manual", req, -1)
	defer l.tr.end(root)
	fsys, err := wal.NewDirFS(parts)
	if err != nil {
		return err
	}
	var recs []wal.ShardRecovery
	err = l.timed("recovery:wal.replay", req, root, func() error {
		recs, err = wal.OpenSharded(fsys, sp.shards, wal.Options{SyncEvery: 1})
		return err
	})
	if err != nil {
		return err
	}
	entries := make([][]*index.Entry, len(recs))
	err = l.timed("recovery:core.reduce", req, root, func() error {
		for i, rec := range recs {
			l.stores = append(l.stores, rec.Store)
			for _, sr := range rec.Series {
				rep, err := l.red.Reduce(sr.Values, 12)
				if err != nil {
					return err
				}
				entries[i] = append(entries[i], index.NewEntry(int(sr.ID), sr.Values, rep))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	trees := make([]*index.DBCH, len(recs))
	err = l.timed("recovery:index.bulkload", req, root, func() error {
		for i := range recs {
			tree, err := index.NewDBCH("SAPLA", 2, 5)
			if err != nil {
				return err
			}
			tree.SafeBound = true
			if err := tree.BulkLoad(entries[i]); err != nil {
				return err
			}
			trees[i] = tree
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.idx, err = index.NewSharded(len(trees), func(i int) (index.Index, error) { return trees[i], nil })
	return err
}

// knnRequestBody / batchRequestBody mirror the server's request shapes for
// the by-hand decode.
type knnRequestBody struct {
	Values ts.Series `json:"values"`
	K      int       `json:"k"`
	Radius float64   `json:"radius"`
}

type batchRequestBody struct {
	K       int `json:"k"`
	Queries []struct {
		Values ts.Series `json:"values"`
	} `json:"queries"`
}

type ingestRequestBody struct {
	ID     int       `json:"id"`
	Values ts.Series `json:"values"`
}

// prepare is the by-hand twin of the server's prepareQuery: validate,
// reduce, wrap.
func (l *layers) prepare(class string, req, parent int, values ts.Series) (dist.Query, error) {
	var q dist.Query
	if err := l.timed(class+":tsio.validate", req, parent, func() error { return tsio.ValidateSeries(values) }); err != nil {
		return q, err
	}
	var rep repr.Representation
	err := l.timed(class+":core.reduce", req, parent, func() (err error) {
		rep, err = l.red.Reduce(values, 12)
		return err
	})
	if err != nil {
		return q, err
	}
	_ = l.timed(class+":dist.new_query", req, parent, func() error { q = dist.NewQuery(values, rep); return nil })
	return q, nil
}

// encode is the by-hand twin of the handlers' response encoding: one
// (id, distance) list per answered query.
func (l *layers) encode(class string, req, parent int, answers ...[]index.Result) error {
	return l.timed(class+":json.encode", req, parent, func() error {
		out := make([][]hit, len(answers))
		for a, res := range answers {
			out[a] = make([]hit, len(res))
			for i, r := range res {
				out[a][i] = hit{ID: r.Entry.ID, Dist: r.Dist}
			}
		}
		_, err := json.Marshal(map[string]any{"epoch": l.idx.Epoch(), "answers": out})
		return err
	})
}

// manualSearch replays one single-query request by hand — decode →
// validate → reduce → query → search → encode — and returns the request id
// and the prepared query.
func (l *layers) manualSearch(class, op string, r *request,
	search func(dist.Query, *knnRequestBody) ([]index.Result, error)) (int, dist.Query, error) {
	req := l.request()
	root := l.tr.begin(class+":manual", req, -1)
	defer l.tr.end(root)
	var body knnRequestBody
	if err := l.timed(class+":json.decode", req, root, func() error { return json.Unmarshal(r.body, &body) }); err != nil {
		return req, dist.Query{}, err
	}
	q, err := l.prepare(class, req, root, body.Values)
	if err != nil {
		return req, q, err
	}
	var res []index.Result
	err = l.timed(class+":"+op, req, root, func() (err error) {
		res, err = search(q, &body)
		return err
	})
	if err != nil {
		return req, q, err
	}
	return req, q, l.encode(class, req, root, res)
}

// manualKNN replays the k-NN list by hand, searching through the same pool
// call the handler makes, and then, in a span of its own, runs the
// sequential scatter with its per-shard parts.
func (l *layers) manualKNN(ctx context.Context) error {
	for i := range l.in.knn {
		req, q, err := l.manualSearch("knn", "index.knn", &l.in.knn[i], func(q dist.Query, body *knnRequestBody) ([]index.Result, error) {
			res, _, err := index.BatchKNNContext(ctx, l.idx, []dist.Query{q}, body.K, 0)
			if err != nil {
				return nil, err
			}
			return res[0], nil
		})
		if err != nil {
			return err
		}
		scatter := l.tr.begin("knn:index.scatter", req, -1)
		// With several shards, each shard's search gets a span first; the
		// scatter span's self time is then the whole ShardedIndex.KNNWith.
		for s := 0; s < l.idx.NumShards() && l.idx.NumShards() > 1 && err == nil; s++ {
			err = l.timed("knn:index.shard_knn", req, scatter, func() error {
				_, _, err := l.idx.Shard(s).KNNWith(l.ws, q, knnK)
				return err
			})
		}
		if err == nil {
			_, _, err = l.idx.KNNWith(l.ws, q, knnK)
		}
		l.tr.end(scatter)
		if err != nil {
			return err
		}
	}
	return nil
}

// replaySearch plays the k-NN, range and batch lists the three ways.
func (l *layers) replaySearch(ctx context.Context) error {
	in := l.in
	var before, after runtime.MemStats
	for _, class := range []struct {
		name string
		reqs []request
	}{{"knn", in.knn}, {"range", in.ranges}, {"batch", in.batches}} {
		for i := range class.reqs {
			if err := l.viaLoopback(class.name+":http.request", &class.reqs[i]); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&before)
		for i := range class.reqs {
			if err := l.viaHandler(class.name+":server.handler", &class.reqs[i]); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		l.countAllocs(class.name, len(class.reqs), &before, &after)
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	// A request with no layer work at all: what the loopback itself costs.
	for i := 0; i < 200; i++ {
		if err := l.viaLoopback("healthz:http.request", &request{"GET", "/healthz", nil, 200}); err != nil {
			return err
		}
	}

	if err := l.manualKNN(ctx); err != nil {
		return err
	}
	for i := range in.ranges {
		_, _, err := l.manualSearch("range", "index.range", &in.ranges[i], func(q dist.Query, body *knnRequestBody) ([]index.Result, error) {
			res, _, err := l.idx.Range(q, body.Radius)
			return res, err
		})
		if err != nil {
			return err
		}
	}
	for i := range in.batches {
		req := l.request()
		root := l.tr.begin("batch:manual", req, -1)
		var body batchRequestBody
		if err := l.timed("batch:json.decode", req, root, func() error { return json.Unmarshal(in.batches[i].body, &body) }); err != nil {
			return err
		}
		queries := make([]dist.Query, len(body.Queries))
		for j, bq := range body.Queries {
			q, err := l.prepare("batch", req, root, bq.Values)
			if err != nil {
				return err
			}
			queries[j] = q
		}
		var res [][]index.Result
		err := l.timed("batch:index.batch_knn", req, root, func() (err error) {
			res, _, err = index.BatchKNNContext(ctx, l.idx, queries, body.K, 0)
			return err
		})
		if err != nil {
			return err
		}
		if err := l.encode("batch", req, root, res...); err != nil {
			return err
		}
		l.tr.end(root)
	}
	return nil
}

// countAllocs records mallocs and bytes per request of a handler replay.
// The figures include the replay's own request and recorder (a constant
// dozen or so allocations per request).
func (l *layers) countAllocs(class string, n int, before, after *runtime.MemStats) {
	if n > 0 {
		l.allocs[class] = allocRate{
			mallocs: float64(after.Mallocs-before.Mallocs) / float64(n),
			kib:     float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024,
		}
	}
}

// replayWrites plays the ingest and delete lists the three ways. Each way
// stores the written series and removes them again, so the next way starts
// from the base data.
func (l *layers) replayWrites() error {
	in := l.in
	nshards := l.idx.NumShards()
	var before, after runtime.MemStats

	for i := range in.ingests {
		if err := l.viaLoopback("ingest:http.request", &in.ingests[i]); err != nil {
			return err
		}
	}
	for i := range in.batchIngs {
		if err := l.viaLoopback("ingest_batch:http.request", &in.batchIngs[i]); err != nil {
			return err
		}
	}
	for i := range in.deletes {
		if err := l.viaLoopback("delete:http.request", &in.deletes[i]); err != nil {
			return err
		}
	}

	runtime.ReadMemStats(&before)
	for i := range in.ingests {
		if err := l.viaHandler("ingest:server.handler", &in.ingests[i]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	l.countAllocs("ingest", len(in.ingests), &before, &after)
	for i := range in.batchIngs {
		if err := l.viaHandler("ingest_batch:server.handler", &in.batchIngs[i]); err != nil {
			return err
		}
	}
	for i := range in.deletes {
		if err := l.viaHandler("delete:server.handler", &in.deletes[i]); err != nil {
			return err
		}
	}

	// By hand, in handler order: decode → validate → reduce → WAL append
	// (fsync) → index insert → encode.
	for i := range in.ingests {
		req := l.request()
		root := l.tr.begin("ingest:manual", req, -1)
		var body ingestRequestBody
		if err := l.timed("ingest:json.decode", req, root, func() error { return json.Unmarshal(in.ingests[i].body, &body) }); err != nil {
			return err
		}
		if err := l.timed("ingest:tsio.validate", req, root, func() error { return tsio.ValidateSeries(body.Values) }); err != nil {
			return err
		}
		var rep repr.Representation
		err := l.timed("ingest:core.reduce", req, root, func() (err error) {
			rep, err = l.red.Reduce(body.Values, 12)
			return err
		})
		if err != nil {
			return err
		}
		store := l.stores[index.ShardOf(body.ID, nshards)]
		if err := l.timed("ingest:wal.append_sync", req, root, func() error { return store.AppendIngest(int64(body.ID), body.Values) }); err != nil {
			return err
		}
		if err := l.timed("ingest:index.insert", req, root, func() error { return l.idx.Insert(index.NewEntry(body.ID, body.Values, rep)) }); err != nil {
			return err
		}
		err = l.timed("ingest:json.encode", req, root, func() error {
			_, err := json.Marshal(map[string]any{"id": body.ID, "index_size": l.idx.Len(), "epoch": l.idx.Epoch()})
			return err
		})
		if err != nil {
			return err
		}
		l.tr.end(root)
	}
	// A batch by hand: reduce all, one group append per shard, one batch
	// insert.
	for b := 0; b < len(in.batchIngs); b++ {
		req := l.request()
		root := l.tr.begin("ingest_batch:manual", req, -1)
		lo := in.spec.ingests + b*batchIngSize
		entries := make([]*index.Entry, 0, batchIngSize)
		groups := make([][]wal.Series, nshards)
		for i := lo; i < lo+batchIngSize; i++ {
			id := in.spec.n + i
			rep, err := l.red.Reduce(in.written[i], 12)
			if err != nil {
				return err
			}
			entries = append(entries, index.NewEntry(id, in.written[i], rep))
			s := index.ShardOf(id, nshards)
			groups[s] = append(groups[s], wal.Series{ID: int64(id), Values: in.written[i]})
		}
		err := l.timed("ingest_batch:wal.append_batch", req, root, func() error {
			for s, g := range groups {
				if len(g) == 0 {
					continue
				}
				if err := l.stores[s].AppendIngestBatch(g); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if err := l.timed("ingest_batch:index.insert_batch", req, root, func() error { return l.idx.InsertBatch(entries) }); err != nil {
			return err
		}
		l.tr.end(root)
	}
	for i := range in.written {
		req := l.request()
		id := in.spec.n + i
		root := l.tr.begin("delete:manual", req, -1)
		store := l.stores[index.ShardOf(id, nshards)]
		if err := l.timed("delete:wal.append_sync", req, root, func() error { return store.AppendDelete(int64(id)) }); err != nil {
			return err
		}
		_ = l.timed("delete:index.delete", req, root, func() error { l.idx.Delete(id); return nil })
		l.tr.end(root)
	}
	return nil
}

var kernelSink float64

// kernels times the leaf functions the search and write paths are made of,
// many calls to a span, plus the maintenance operations.
func (l *layers) kernels() error {
	in := l.in
	req := l.request()

	// Dist_PAR and the exact distance, at this workload's shapes.
	flats := make([]*dist.FlatLinear, 0, 512)
	for i := 0; i < 512 && i < len(in.data); i++ {
		rep, err := l.red.Reduce(in.data[i], 12)
		if err != nil {
			return err
		}
		flats = append(flats, dist.FlattenLinear(rep))
	}
	_ = l.timed("kernel:dist.par", req, -1, func() error {
		for rep := 0; rep < kernelReps; rep++ {
			for i := 1; i < len(flats); i++ {
				kernelSink += dist.PARFlat(flats[0], flats[i])
			}
		}
		return nil
	})
	_ = l.timed("kernel:ts.euclid", req, -1, func() error {
		for rep := 0; rep < kernelReps; rep++ {
			for i := 1; i < len(flats); i++ {
				kernelSink += ts.EuclideanSq(in.queries[0], in.data[i])
			}
		}
		return nil
	})
	var buf []byte
	err := l.timed("kernel:tsio.wal_encode", req, -1, func() (err error) {
		for i, s := range in.written {
			if buf, err = tsio.AppendWALRecord(buf[:0], tsio.WALRecord{Op: tsio.WALIngest, ID: int64(i), Values: s}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Appends without the fsync, on a store of their own.
	fsys, err := wal.NewDirFS(filepath.Join(l.tmp, "nosync"))
	if err != nil {
		return err
	}
	recs, err := wal.OpenSharded(fsys, 1, wal.Options{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	l.stores = append(l.stores, recs[0].Store) // closed with the others
	for i, s := range in.written {
		if err := l.timed("kernel:wal.append_nosync", req, -1, func() error { return recs[0].Store.AppendIngest(int64(i), s) }); err != nil {
			return err
		}
	}

	return nil
}

// maintenance measures what the write replays left behind — freed arena
// slots — and times the rebuild that reclaims them.
func (l *layers) maintenance() {
	l.fragmentation = l.idx.Fragmentation()
	_ = l.timed("kernel:index.compact", l.request(), -1, func() error { l.idx.Compact(0); return nil })
}

// kernelReps × 511 pairs go into one kernel span.
const kernelReps = 40

// derive turns the span summary into the per-layer metrics and the three
// model reconciliations.
func (l *layers) derive(m map[string]metric, child *outcome) {
	in, sp := l.in, l.in.spec
	st := selfTimes(l.tr.spans)
	us := func(name string) float64 { return st[name].meanTotalUS() }
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// http / server: loopback minus handler is transport; handler minus the
	// layers it calls is the server's own time (JSON, middleware, locks).
	knnLayers := us("knn:tsio.validate") + us("knn:core.reduce") + us("knn:dist.new_query") + us("knn:index.knn")
	put("http.transport_us", us("knn:http.request")-us("knn:server.handler"), "us")
	put("server.knn_self_us", us("knn:server.handler")-knnLayers, "us")
	put("server.range_self_us", us("range:server.handler")-
		(us("range:tsio.validate")+us("range:core.reduce")+us("range:dist.new_query")+us("range:index.range")), "us")
	batchLayers := batchQueries*(us("batch:tsio.validate")+us("batch:core.reduce")+us("batch:dist.new_query")) + us("batch:index.batch_knn")
	put("server.batch_self_us_per_query", (us("batch:server.handler")-batchLayers)/batchQueries, "us")
	ingestLayers := us("ingest:tsio.validate") + us("ingest:core.reduce") + us("ingest:wal.append_sync") + us("ingest:index.insert")
	put("server.ingest_self_us", us("ingest:server.handler")-ingestLayers, "us")
	put("server.allocs_per_knn", l.allocs["knn"].mallocs, "count")
	put("server.alloc_kb_per_knn", l.allocs["knn"].kib, "KiB")
	put("server.allocs_per_batch_query", l.allocs["batch"].mallocs/batchQueries, "count")
	put("server.allocs_per_ingest", l.allocs["ingest"].mallocs, "count")

	// tsio / core / dist / ts.
	put("tsio.validate_us", us("knn:tsio.validate"), "us")
	put("tsio.wal_encode_ns", float64(st["kernel:tsio.wal_encode"].TotalNS)/float64(len(in.written)), "ns")
	put("core.reduce_us", us("knn:core.reduce"), "us")
	pairs := float64(kernelReps * (min(512, len(in.data)) - 1))
	parNS := float64(st["kernel:dist.par"].TotalNS) / pairs
	euclidNS := float64(st["kernel:ts.euclid"].TotalNS) / pairs
	put("dist.par_ns", parNS, "ns")
	put("ts.euclid_ns", euclidNS, "ns")

	// index.
	put("index.knn_us", us("knn:index.knn"), "us")
	put("index.range_us", us("range:index.range"), "us")
	put("index.batch_us_per_query", us("batch:index.batch_knn")/batchQueries, "us")
	shardSum := us("knn:index.scatter")
	if sp.shards > 1 {
		shardSum = float64(st["knn:index.shard_knn"].TotalNS) / float64(len(in.knn)) / 1e3
	}
	put("index.shard_knn_sum_us", shardSum, "us")
	// The scatter span holds the per-shard searches and one full
	// ShardedIndex.KNNWith; what that call costs beyond its shard searches
	// is gather and merge.
	put("index.scatter_merge_us", st["knn:index.scatter"].meanSelfUS()-shardSum, "us")
	put("index.filter_est_us", m["index.filter_per_query"].Value*parNS/1e3, "us")
	put("index.refine_est_us", m["index.refine_per_query"].Value*euclidNS/1e3, "us")
	put("index.insert_us", us("ingest:index.insert"), "us")
	put("index.delete_us", us("delete:index.delete"), "us")
	put("index.insert_batch_us_per_series", us("ingest_batch:index.insert_batch")/batchIngSize, "us")
	put("wal.batch_append_us_per_series", us("ingest_batch:wal.append_batch")/batchIngSize, "us")
	put("index.bulkload_ms", us("recovery:index.bulkload")/1e3, "ms")
	put("index.compact_ms", us("kernel:index.compact")/1e3, "ms")
	put("index.fragmentation", l.fragmentation, "ratio")

	// wal.
	put("wal.append_sync_us", us("ingest:wal.append_sync"), "us")
	put("wal.append_nosync_us", us("kernel:wal.append_nosync"), "us")
	put("wal.fsync_us", us("ingest:wal.append_sync")-us("kernel:wal.append_nosync"), "us")
	put("wal.replay_ms", us("recovery:wal.replay")/1e3, "ms")

	// model: whole against the sum of independently timed parts.
	gap := func(name string, whole, sum float64) {
		g := (whole - sum) / whole
		put(name, g, "ratio")
		if g > 0.15 || g < -0.15 {
			l.findings = append(l.findings, fmt.Sprintf("%s = %.3f: whole %.1f us, layers sum to %.1f us", name, g, whole, sum))
		}
	}
	transport := us("healthz:http.request")
	knnSum := transport + us("knn:json.decode") + knnLayers + us("knn:json.encode")
	put("model.knn_sum_us", knnSum, "us")
	gap("model.knn_gap_ratio", us("knn:http.request"), knnSum)
	gap("model.ingest_gap_ratio", us("ingest:http.request"),
		transport+us("ingest:json.decode")+ingestLayers+us("ingest:json.encode"))
	// Recovery rebuilds the shards in parallel, up to one per core.
	par := float64(min(sp.shards, runtime.GOMAXPROCS(0)))
	gap("model.recovery_gap_ratio", us("recovery:server.New"),
		us("recovery:wal.replay")+(us("recovery:core.reduce")+us("recovery:index.bulkload"))/par)
	put("model.knn_vs_scan", percentile(child.knn.estimates(slowdown(child.probes)), 50)/(float64(in.oracle.scan)/1e6), "ratio")
}
