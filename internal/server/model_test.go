package server

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"sapla/internal/core"
	"sapla/internal/index"
	"sapla/internal/ts"
	"sapla/internal/wal"
)

// The model harness. modelRun plays an op tape through a server's Handler()
// and holds every response to a model: a map of the acknowledged series and
// a linear scan over it. Each served configuration is a row of it: a shard
// count, a durability layer, a series length and value form, and a tape. The
// contract it checks is DESIGN §7's "The model harness". A failure names the
// configuration, its seed and the step; the rows' seeds are fixed, so `go test
// -run 'TestName/subtest$' ./internal/server` replays the same tape.

// op is one tape entry; arg picks the variant.
type op struct {
	kind opKind
	arg  uint8
}

type opKind uint8

const (
	opIngest   opKind = iota // arg%3: an auto ID, an explicit fresh or deleted ID, a live ID
	opBatch                  // arg%8: mixed IDs (0–3), an in-batch duplicate, a wrong-length item, a live ID, empty
	opDelete                 // arg%2: a live ID, an absent one
	opKNN                    // k = {1, 5, 10, live + 3}[arg%4]
	opKNNBatch               // 1 + arg/4%3 queries at opKNN's k
	opRange                  // the radius is a stored series' exact distance
	opSnapshot               // snapshotNow
	opCrash                  // arg%2: MemFS.Crash(nil) now, or FaultFS.CrashAt a few FS ops on
	opRestart                // arg%2: a clean restart at M = 12, or at M = 6
	opRace                   // readers against writers on disjoint ID sets
	numOpKinds
)

// weights is a tape's op mix.
type weights [numOpKinds]int

var mixOps = weights{opIngest: 6, opBatch: 4, opDelete: 2, opKNN: 3, opKNNBatch: 1, opRange: 2, opSnapshot: 1}

// randomTape draws length ops from seed under w, with at least one of every
// weighted kind.
func randomTape(seed int64, length int, w weights) []op {
	rng := rand.New(rand.NewSource(seed))
	var tape []op
	total := 0
	for k, wk := range w {
		if wk > 0 {
			tape = append(tape, op{opKind(k), uint8(rng.Intn(256))})
		}
		total += wk
	}
	for len(tape) < length {
		k, r := 0, rng.Intn(total)
		for ; r >= w[k]; k++ {
			r -= w[k]
		}
		tape = append(tape, op{opKind(k), uint8(rng.Intn(256))})
	}
	rng.Shuffle(len(tape), func(i, j int) { tape[i], tape[j] = tape[j], tape[i] })
	return tape
}

type fsKind uint8

const (
	inMemory fsKind = iota // no WAL
	memFS                  // wal.MemFS: a crash loses every unsynced byte
	faultFS                // wal.FaultFS over a MemFS: a crash can also cut a write short
)

// modelConfig is one served configuration.
type modelConfig struct {
	shards  int
	fs      fsKind
	n       int
	decimal bool  // six-decimal values, as the end-to-end benchmark sends them
	reps    bool  // the WAL's size rule logs every series' representation at this n and value form
	shadow  bool  // an op-1-only writer mirrors the log: the data directories must be equal
	twin    bool  // a twin takes every single ingest as a batch of one: the WAL bytes must be equal
	seed    int64 // the values, queries and IDs
}

// item is one series of an ingest; id < 0 asks for an auto ID.
type item struct {
	id int
	v  ts.Series
}

func (it item) body() map[string]any {
	b := map[string]any{"values": it.v}
	if it.id >= 0 {
		b["id"] = it.id
	}
	return b
}

func batchBody(items []item) map[string]any {
	series := make([]map[string]any, len(items))
	for i, it := range items {
		series[i] = it.body()
	}
	return map[string]any{"series": series}
}

// writeReply decodes every write's answer.
type writeReply struct {
	ID        int    `json:"id"`
	IDs       []int  `json:"ids"`
	Deleted   bool   `json:"deleted"`
	IndexSize int    `json:"index_size"`
	Epoch     uint64 `json:"epoch"`
	Error     string `json:"error"`
}

// hit is one live series at its exact distance from a query.
type hit struct {
	id int
	d  float64
}

type harness struct {
	t    *testing.T
	cfg  modelConfig
	rng  *rand.Rand
	red  *core.Reducer
	step int

	m       int // the serving coefficient budget
	s       *Server
	h       http.Handler
	mem     *wal.MemFS // nil in memory
	ffs     *wal.FaultFS
	crashAt int // the FaultFS op an armed crash fires at; 0 when none is armed
	twin    *Server
	twinMem *wal.MemFS
	shadow  *rawShadow

	// The model.
	live    map[int]ts.Series
	dead    []int       // deleted IDs, for re-admission; may hold live ones again
	tagM    map[int]int // per live ID: the M of the record recovery reads
	maxID   int         // the largest ID recovery will have seen, -1 for none
	nextID  int         // the server's auto-ID counter
	n       int         // the pinned series length, 0 before the first claim
	epoch   uint64
	inDoubt map[int]ts.Series // IDs of writes a crash answered 5xx, with their values

	// Since the last (re)start, for /metrics; and for the log.
	mu                         sync.Mutex
	reqs                       map[string]int
	queries, ingested, deleted int
	hits, truth                int
	restarts, doubted, adopted int
	readmitted, spared         int // deleted IDs admitted after a restart; exact distances the filter spared
}

// modelRun plays tape on a fresh server under cfg, checks every response
// against the model, and ends with the end-of-run checks.
func modelRun(t *testing.T, cfg modelConfig, tape []op) *harness {
	t.Helper()
	h := &harness{
		t: t, cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed)), red: core.NewReducer(), m: 12,
		live: map[int]ts.Series{}, tagM: map[int]int{}, maxID: -1, inDoubt: map[int]ts.Series{}, reqs: map[string]int{},
	}
	if cfg.fs != inMemory {
		h.mem = wal.NewMemFS()
	}
	if cfg.shadow {
		h.shadow = newRawShadow(t, cfg.shards)
	}
	h.s = h.open(h.mem, cfg.shards, cfg.fs == faultFS)
	h.h = h.s.Handler()
	if cfg.twin {
		h.twinMem = wal.NewMemFS()
		h.twin = h.open(h.twinMem, cfg.shards, false)
	}
	for i, o := range tape {
		h.step = i
		h.play(o)
	}
	if h.crashAt > 0 { // the process dies before the armed crash point
		h.restart(true, h.m)
	}
	h.finish()
	return h
}

func (h *harness) fail(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%+v step %d: %s", h.cfg, h.step, fmt.Sprintf(format, args...))
}

// open starts a server at the current M over mem (in memory when nil), the
// WAL wrapped in a fresh FaultFS when fault is set.
func (h *harness) open(mem *wal.MemFS, shards int, fault bool) *Server {
	cfg := Config{M: h.m, Shards: shards, Workers: 2}
	if mem != nil {
		cfg = durableShardedConfig(mem, 1, shards)
		cfg.M = h.m
		if fault {
			h.ffs = wal.NewFaultFS(mem)
			cfg.WALFS = h.ffs
		}
	}
	s, err := New(cfg)
	if err != nil {
		h.fail("New: %v", err)
	}
	return s
}

// endpoints names the API paths as /metrics counts their requests.
var endpoints = map[string]string{"/v1/ingest": "ingest", "/v1/ingest/batch": "ingest_batch",
	"/v1/knn": "knn", "/v1/knn/batch": "knn_batch", "/v1/range": "range"}

// call sends one request through the server's handler, counting it.
func (h *harness) call(method, path string, body, out any) int {
	name := endpoints[path]
	if method == "DELETE" {
		name = "delete"
	}
	if name != "" {
		h.mu.Lock()
		h.reqs[name]++
		h.mu.Unlock()
	}
	return call(h.t, h.h, method, path, body, out)
}

// call sends one request through hd and decodes the answer into out (if
// non-nil), returning the status.
func call(t testing.TB, hd http.Handler, method, path string, body, out any) int {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			t.Error(err)
		}
	}
	rec := httptest.NewRecorder()
	hd.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(raw)))
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Errorf("%s %s: decode: %v", method, path, err)
		}
	}
	return rec.Code
}

// play runs one op. While a FaultFS crash is armed, snapshots, restarts and
// the race wait; once it has fired, the server is recovered right after the
// op it cut. A twin restarts never, and the race skips the rows whose logs
// must mirror a fixed write order.
func (h *harness) play(o op) {
	armed, durable := h.crashAt > 0, h.mem != nil && h.twin == nil
	switch o.kind {
	case opIngest:
		it := item{-1, h.series(h.cfg.n)}
		switch o.arg % 3 {
		case 1:
			it.id = h.freshID(nil)
		case 2:
			if id, ok := h.anyLive(); ok {
				it.id = id
			}
		}
		h.write([]item{it}, true)
	case opBatch:
		h.batch(o.arg % 8)
	case opDelete:
		h.delete(o.arg % 2)
	case opKNN, opKNNBatch:
		h.knn(o)
	case opRange:
		h.rangeQuery()
	case opSnapshot:
		if !armed {
			h.snapshot()
		}
	case opCrash:
		if durable && !armed {
			if o.arg%2 == 1 && h.ffs != nil {
				h.crashAt = h.ffs.Ops() + 1 + h.rng.Intn(6)
				h.ffs.CrashAt(h.crashAt)
			} else {
				h.restart(true, h.m)
			}
		}
	case opRestart:
		if durable && !armed {
			h.restart(false, []int{12, 6}[o.arg%2])
		}
	case opRace:
		if !armed && !h.cfg.shadow && !h.cfg.twin {
			h.race()
		}
	}
	if h.fired() {
		h.restart(true, h.m)
	}
}

func (h *harness) fired() bool { return h.crashAt > 0 && h.ffs.Ops() >= h.crashAt }

func (h *harness) series(n int) ts.Series {
	if h.cfg.decimal {
		return wireSeries(h.rng, n)
	}
	return randWalk(h.rng, n)
}

func sortedIDs(set map[int]ts.Series) []int {
	ids := make([]int, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// pick draws one of ids; the callers' orders keep a tape replayable.
func (h *harness) pick(ids []int) (int, bool) {
	if len(ids) == 0 {
		return 0, false
	}
	return ids[h.rng.Intn(len(ids))], true
}

func (h *harness) anyLive() (int, bool) { return h.pick(sortedIDs(h.live)) }

// deadID returns a deleted ID that is not live again.
func (h *harness) deadID() (int, bool) {
	var ids []int
	for _, id := range h.dead {
		if _, ok := h.live[id]; !ok {
			ids = append(ids, id)
		}
	}
	return h.pick(ids)
}

// freshID returns an ID neither live nor taken: a deleted one, or one at or
// just past the next auto ID.
func (h *harness) freshID(taken map[int]bool) int {
	for {
		id, ok := h.deadID()
		if !ok || h.rng.Intn(2) == 0 {
			id = h.nextID + h.rng.Intn(3+len(taken))
		}
		if !taken[id] {
			return id
		}
	}
}

func (h *harness) batch(kind uint8) {
	if kind == 7 {
		h.write(nil, false)
		return
	}
	items := make([]item, 2+h.rng.Intn(8))
	taken := map[int]bool{}
	for i := range items {
		items[i] = item{-1, h.series(h.cfg.n)}
		if h.rng.Intn(2) == 0 {
			items[i].id = h.freshID(taken)
			taken[items[i].id] = true
		}
	}
	j := 1 + h.rng.Intn(len(items)-1)
	switch kind {
	case 4:
		if items[0].id < 0 {
			items[0].id = h.freshID(taken)
		}
		items[j].id = items[0].id
	case 5:
		items[j].v = h.series(h.cfg.n / 2)
	case 6:
		if id, ok := h.anyLive(); ok {
			items[j].id = id
		}
	}
	h.write(items, false)
}

// verdict is the status the server must answer items with and the IDs its
// claim assigns. Like the claim, it advances the auto-ID counter — past the
// explicit IDs of the request — and pins the series length once a request
// gets that far.
func (h *harness) verdict(items []item) (int, []int) {
	if len(items) == 0 {
		return http.StatusBadRequest, nil
	}
	for _, it := range items {
		if len(it.v) != len(items[0].v) || (h.n != 0 && len(it.v) != h.n) {
			return http.StatusBadRequest, nil
		}
	}
	explicit := map[int]bool{}
	for _, it := range items {
		if it.id >= 0 && explicit[it.id] {
			return http.StatusConflict, nil
		}
		explicit[it.id] = it.id >= 0
	}
	ids := make([]int, len(items))
	for i, it := range items {
		if it.id >= 0 {
			ids[i], h.nextID = it.id, max(h.nextID, it.id+1)
			continue
		}
		for explicit[h.nextID] {
			h.nextID++
		}
		ids[i] = h.nextID
		h.nextID++
	}
	h.n = len(items[0].v)
	for _, id := range ids {
		if _, ok := h.live[id]; ok {
			return http.StatusConflict, ids
		}
	}
	return http.StatusCreated, ids
}

func (h *harness) commit(id int, v ts.Series) {
	h.live[id], h.tagM[id], h.maxID = v, h.m, max(h.maxID, id)
}

// write sends items as one ingest — POST /v1/ingest when single, a batch
// otherwise — and holds the answer to the model's verdict.
func (h *harness) write(items []item, single bool) {
	h.t.Helper()
	path, body := "/v1/ingest/batch", any(batchBody(items))
	if single {
		path, body = "/v1/ingest", items[0].body()
	}
	want, ids := h.verdict(items)
	var got writeReply
	code := h.call("POST", path, body, &got)
	if single {
		got.IDs = []int{got.ID}
	}
	h.twinAgrees(code, got, "POST", "/v1/ingest/batch", batchBody(items))
	h.settle(fmt.Sprintf("%s of %d", path, len(items)), code, want, got, func() {
		shards := map[int]bool{}
		for i, id := range ids {
			h.commit(id, items[i].v)
			h.shadow.ingest(h.t, id, items[i].v)
			shards[index.ShardOf(id, h.cfg.shards)] = true
		}
		h.epoch += uint64(len(shards))
		h.ingested += len(ids)
		if !slices.Equal(got.IDs, ids) {
			h.fail("%s answered IDs %v, the model %v", path, got.IDs, ids)
		}
	}, func() {
		for i, id := range ids {
			h.inDoubt[id], h.tagM[id] = items[i].v, h.m
		}
	})
}

func (h *harness) delete(kind uint8) {
	id, ok := h.anyLive()
	if !ok || kind == 1 {
		if id, ok = h.deadID(); !ok {
			id = h.nextID + 7
		}
	}
	v, present := h.live[id]
	want := http.StatusNotFound
	if present {
		want = http.StatusOK
	}
	path := fmt.Sprintf("/v1/series/%d", id)
	var got writeReply
	code := h.call("DELETE", path, nil, &got)
	h.twinAgrees(code, got, "DELETE", path, nil)
	h.settle("DELETE "+path, code, want, got, func() {
		delete(h.live, id)
		h.dead = append(h.dead, id)
		h.shadow.delete(h.t, id)
		h.epoch++
		h.deleted++
		if !got.Deleted {
			h.fail("DELETE %d answered %+v", id, got)
		}
	}, func() {
		h.inDoubt[id] = v
		delete(h.live, id)
	})
}

// twinAgrees sends a write to the twin, if there is one, and requires the
// answer the server gave.
func (h *harness) twinAgrees(code int, got writeReply, method, path string, body any) {
	if h.twin == nil {
		return
	}
	var tw writeReply
	if tc := call(h.t, h.twin.Handler(), method, path, body, &tw); tc != code || (code < 300 &&
		(!slices.Equal(tw.IDs, got.IDs) || tw.IndexSize != got.IndexSize || tw.Epoch != got.Epoch)) {
		h.fail("%s %s answered %d %+v, the twin %d %+v", method, path, code, got, tc, tw)
	}
}

// settle holds a write's answer to the model's verdict want. An admitted write
// applies to the model, whose size and epoch the reply must then show; a 5xx
// once the armed crash has fired puts the write in doubt; any other answer
// fails. Every settled write ends with checkState.
func (h *harness) settle(what string, code, want int, got writeReply, apply, doubt func()) {
	h.t.Helper()
	switch {
	case code == want && code < 300:
		apply()
		if got.IndexSize != len(h.live) || got.Epoch != h.epoch {
			h.fail("%s answered %+v; the model holds %d at epoch %d", what, got, len(h.live), h.epoch)
		}
	case code == want:
	case want < 300 && code >= 500 && h.fired():
		doubt()
		h.doubted++
		return
	default:
		h.fail("%s answered %d (%s), the model %d", what, code, got.Error, want)
	}
	h.checkState()
}

// checkState requires /healthz to show the model's size and epoch and
// /metrics its count on every shard.
func (h *harness) checkState() {
	h.t.Helper()
	var hz ingestOutcome
	h.call("GET", "/healthz", nil, &hz)
	var met struct {
		Shards []struct {
			Size int `json:"size"`
		} `json:"shards"`
	}
	h.call("GET", "/metrics", nil, &met)
	want, got := make([]int, h.cfg.shards), make([]int, len(met.Shards))
	for id := range h.live {
		want[index.ShardOf(id, h.cfg.shards)]++
	}
	for i, sd := range met.Shards {
		got[i] = sd.Size
	}
	if hz.IndexSize != len(h.live) || hz.Epoch != h.epoch || !slices.Equal(got, want) {
		h.fail("/healthz %+v and shard sizes %v; the model holds %d (%v) at epoch %d", hz, got, len(h.live), want, h.epoch)
	}
}

// query draws a query: a stored series, a perturbed copy of one, or a fresh
// series — before anything pins the series length, sometimes one too short
// for M, which is answered like any other: queries are not reduced.
func (h *harness) query() ts.Series {
	if h.n == 0 && h.rng.Intn(3) == 0 {
		return h.series(3)
	}
	id, ok := h.anyLive()
	if !ok || h.rng.Intn(3) == 0 {
		return h.series(h.cfg.n)
	}
	q := h.live[id].Clone()
	if h.rng.Intn(2) == 0 {
		for i := range q {
			q[i] += 0.2 * h.rng.NormFloat64()
		}
	}
	return q
}

// scan is the model's answer to q: every live series at its exact distance,
// in canonical (distance, ID) order.
func (h *harness) scan(q ts.Series) []hit {
	out := make([]hit, 0, len(h.live))
	for id, v := range h.live {
		out = append(out, hit{id, math.Sqrt(ts.EuclideanSq(q, v))})
	}
	slices.SortFunc(out, func(a, b hit) int { return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.id, b.id)) })
	return out
}

// check holds got, the answer to q, to want, the scan's: got is live, exact
// to the bit and in canonical order, and it is want — the same IDs in the
// same order (the flat tier filters on a lower bound, so it answers as the
// scan does). A k-NN answer (k > 0) counts toward the recall, which finish
// requires to be 1; a range answer (k = 0) has nothing beyond radius.
func (h *harness) check(what string, q ts.Series, k int, radius float64, got []resultJSON, want []hit) {
	h.t.Helper()
	if why := sound(q, got, h.live); why != "" {
		h.fail("%s: %s", what, why)
	}
	in := map[int]bool{}
	for _, r := range got {
		if k == 0 && r.Dist > radius {
			h.fail("%s: id %d at %v lies beyond the radius %v", what, r.ID, r.Dist, radius)
		}
		in[r.ID] = true
	}
	if len(got) != len(want) {
		h.fail("%s: %d results, the scan %d", what, len(got), len(want))
	}
	for i, w := range want {
		if k > 0 && k < len(h.live) {
			h.truth++
			if in[w.id] {
				h.hits++
			}
		}
		if got[i].ID != w.id {
			h.fail("%s: result %d is id %d, the scan's id %d at %v", what, i, got[i].ID, w.id, w.d)
		}
	}
}

// sound names the first result of res, the answer to q, that is not a series
// of stored at its exact distance in canonical (distance, ID) order.
func sound(q ts.Series, res []resultJSON, stored map[int]ts.Series) string {
	for i, r := range res {
		v, ok := stored[r.ID]
		if !ok || math.Float64bits(r.Dist) != math.Float64bits(math.Sqrt(ts.EuclideanSq(q, v))) {
			return fmt.Sprintf("result %d %+v is not a stored series at its exact distance", i, r)
		}
		if i > 0 && cmp.Or(cmp.Compare(res[i-1].Dist, r.Dist), cmp.Compare(res[i-1].ID, r.ID)) >= 0 {
			return fmt.Sprintf("results %d, %d out of canonical order: %+v %+v", i-1, i, res[i-1], r)
		}
	}
	return ""
}

func (h *harness) knn(o op) {
	k := min([]int{1, 5, 10, len(h.live) + 3}[o.arg%4], 128)
	qs := []ts.Series{h.query()}
	var answers []knnAnswer
	var epoch uint64
	code := 0
	if o.kind == opKNN {
		var resp knnResponse
		code = h.call("POST", "/v1/knn", map[string]any{"values": qs[0], "k": k}, &resp)
		answers, epoch = []knnAnswer{{resp.Results, resp.Stats}}, resp.Epoch
	} else {
		for i := o.arg / 4 % 3; i > 0; i-- {
			qs = append(qs, h.query())
		}
		body := make([]map[string]any, len(qs))
		for i, q := range qs {
			body[i] = map[string]any{"values": q}
		}
		var resp batchResponse
		code = h.call("POST", "/v1/knn/batch", map[string]any{"k": k, "queries": body}, &resp)
		answers, epoch = resp.Answers, resp.Epoch
	}
	if code != http.StatusOK || len(answers) != len(qs) || epoch != h.epoch {
		h.fail("%d-query k-NN k=%d: status %d, %d answers, epoch %d (the model's %d)", len(qs), k, code, len(answers), epoch, h.epoch)
	}
	h.queries += len(qs)
	for i, q := range qs {
		want := h.scan(q)
		want = want[:min(k, len(want))]
		what := fmt.Sprintf("k-NN k=%d query %d of %d", k, i, len(qs))
		h.check(what, q, k, 0, answers[i].Results, want)
		if st := answers[i].Stats; st.Filtered != len(h.live) || st.NodesVisited != 0 || st.Measured < len(want) {
			h.fail("%s: stats %+v over %d live series", what, st, len(h.live))
		}
	}
}

func (h *harness) rangeQuery() {
	q := h.query()
	all := h.scan(q)
	radius := 1.0
	if len(all) > 0 {
		radius = all[h.rng.Intn(len(all))].d // on a stored series: the boundary is inclusive
	}
	var resp knnResponse
	if code := h.call("POST", "/v1/range", map[string]any{"values": q, "radius": radius}, &resp); code != http.StatusOK || resp.Epoch != h.epoch {
		h.fail("range: status %d, epoch %d (the model's %d)", code, resp.Epoch, h.epoch)
	}
	h.queries++
	n := 0
	for n < len(all) && all[n].d <= radius {
		n++
	}
	h.check(fmt.Sprintf("range r=%v", radius), q, 0, radius, resp.Results, all[:n])
}

func (h *harness) snapshot() {
	for _, s := range []*Server{h.s, h.twin} {
		if s != nil {
			if err := s.snapshotNow(); err != nil {
				h.fail("snapshot: %v", err)
			}
		}
	}
	if h.mem == nil {
		return
	}
	h.maxID = -1
	for id := range h.live {
		h.commit(id, h.live[id])
	}
	h.shadow.snapshot(h.t)
}

// restart brings the server down — a crash that loses every unsynced byte, or
// a clean Shutdown — and recovers it at budget m, at GOMAXPROCS 1 and 4 in
// turn. A crashed server reopens asking for the wrong shard count: the
// manifest pins the original one.
func (h *harness) restart(crash bool, m int) {
	h.t.Helper()
	if h.shadow != nil && !reflect.DeepEqual(memFiles(h.t, h.mem), memFiles(h.t, h.shadow.mem)) {
		h.fail("the data directory of %d-point series differs from an op-1-only writer's", h.cfg.n)
	}
	shards := h.cfg.shards
	if crash {
		h.mem.Crash(nil)
		shards = shards%3 + 1
	} else if err := h.s.Shutdown(context.Background()); err != nil {
		h.fail("shutdown: %v", err)
	}
	h.m = m
	prev := runtime.GOMAXPROCS([]int{1, 4}[h.restarts%2])
	h.s = h.open(h.mem, shards, h.cfg.fs == faultFS)
	runtime.GOMAXPROCS(prev)
	h.h = h.s.Handler()
	h.restarts++
	h.epoch, h.crashAt, h.reqs, h.queries, h.ingested, h.deleted = 0, 0, map[string]int{}, 0, 0, 0
	if len(h.s.shards) != h.cfg.shards {
		h.fail("recovered %d shards, the manifest pins %d", len(h.s.shards), h.cfg.shards)
	}
	got := contents(h.s)
	for _, id := range sortedIDs(h.inDoubt) {
		if bits, ok := got[id]; !ok {
			h.dead = append(h.dead, id)
		} else if slices.Equal(bits, seriesBits(h.inDoubt[id])) {
			h.commit(id, h.inDoubt[id])
			h.adopted++
		} else {
			h.fail("in-doubt id %d came back with other values", id)
		}
	}
	clear(h.inDoubt)
	if want := bitsOf(h.live); !reflect.DeepEqual(got, want) {
		h.fail("recovered %d series, the model holds %d, contents differ", len(got), len(want))
	}
	h.nextID, h.n = h.maxID+1, 0
	if len(h.live) > 0 {
		h.n = h.cfg.n
	}
	loaded := 0
	for id := range h.live {
		if h.cfg.reps && h.tagM[id] == m {
			loaded++
		}
	}
	recoveryCounts(h.t, h.h, loaded, len(h.live)-loaded)
	freshReps(h.t, h.s, m)
	if h.cfg.n >= 1024 {
		freshEnvelopes(h.t, h.s)
	}
	h.likeFresh()
	// Recovery claims nothing: the shards alone refuse an acknowledged ID on
	// both ingest endpoints, and a deleted one is admitted again.
	if id, ok := h.anyLive(); ok {
		h.write([]item{{id, h.series(h.cfg.n)}}, true)
		h.write([]item{{id, h.series(h.cfg.n)}}, false)
	}
	if id, ok := h.deadID(); ok {
		h.write([]item{{id, h.series(h.cfg.n)}}, true)
		h.readmitted++
	}
}

// likeFresh requires four random k-NN queries to get the answers — IDs and
// distance bits — of a fresh in-memory single-shard server at the same M
// holding exactly the model.
func (h *harness) likeFresh() {
	h.t.Helper()
	ref, err := New(Config{Workers: 2, M: h.m, Shards: h.cfg.shards})
	if err != nil {
		h.fail("%v", err)
	}
	var items []ingestRequest
	for _, id := range sortedIDs(h.live) {
		items = append(items, ingestRequest{ID: &id, Values: h.live[id]})
	}
	if len(items) == 0 {
		return
	}
	if _, _, rej := ref.ingest(context.Background(), items); rej != nil {
		h.fail("reference ingest: %v", rej.err)
	}
	for qi := 0; qi < 4; qi++ {
		body := map[string]any{"values": h.series(h.cfg.n), "k": min(1+h.rng.Intn(5), len(h.live))}
		var got, want knnResponse
		h.call("POST", "/v1/knn", body, &got)
		call(h.t, ref.Handler(), "POST", "/v1/knn", body, &want)
		h.queries++
		if !reflect.DeepEqual(got.Results, want.Results) {
			h.fail("recovered server answers %+v, a fresh one %+v", got.Results, want.Results)
		}
	}
}

// race runs two writers — one by single ingests, one by batches — cycling
// disjoint churn IDs through ingest and delete, against two readers whose
// every answer is live, exact and in canonical order, whose k-NN over
// everything holds every series the model holds, and whose epochs never
// fall. Under -race it is the check on the lock classes' guarded fields along
// the serving path: the shards' flat tiers, and bookMu's claims and series
// length, which every query reads through seriesLen while ingests write them.
func (h *harness) race() {
	iters := 6
	if testing.Short() {
		iters = 3
	}
	base, stored := h.nextID, maps.Clone(h.live)
	h.nextID += 8
	groups := map[int]bool{} // shards the batch writer's IDs touch
	for id := base; id < base+8; id++ {
		stored[id] = h.series(h.cfg.n)
		if id >= base+4 {
			groups[index.ShardOf(id, h.cfg.shards)] = true
		}
	}
	queries := []ts.Series{h.query(), h.query()}
	radius := 10.0
	if len(h.live) > 0 {
		radius = h.scan(queries[0])[len(h.live)/2].d
	}
	k := min(len(h.live)+8, 128)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(mine []int) {
			defer wg.Done()
			items := make([]item, len(mine))
			for i, id := range mine {
				items[i] = item{id, stored[id]}
			}
			for it := 0; it < iters; it++ {
				if w == 0 {
					for _, x := range items {
						if code := h.call("POST", "/v1/ingest", x.body(), nil); code != http.StatusCreated {
							h.t.Errorf("race: ingest %d answered %d", x.id, code)
							return
						}
					}
				} else if code := h.call("POST", "/v1/ingest/batch", batchBody(items), nil); code != http.StatusCreated {
					h.t.Errorf("race: batch ingest answered %d", code)
					return
				}
				for _, id := range mine {
					if code := h.call("DELETE", fmt.Sprintf("/v1/series/%d", id), nil, nil); code != http.StatusOK {
						h.t.Errorf("race: delete %d answered %d", id, code)
						return
					}
				}
			}
		}([]int{base + 4*w, base + 4*w + 1, base + 4*w + 2, base + 4*w + 3})
	}
	for _, q := range queries {
		wg.Add(1)
		go func(q ts.Series) {
			defer wg.Done()
			var last uint64
			for it := 0; it < iters; it++ {
				var knn, rq knnResponse
				var batch batchResponse
				codes := [3]int{
					h.call("POST", "/v1/knn", map[string]any{"values": q, "k": k}, &knn),
					h.call("POST", "/v1/knn/batch", map[string]any{"k": 5, "queries": []map[string]any{{"values": q}}}, &batch),
					h.call("POST", "/v1/range", map[string]any{"values": q, "radius": radius}, &rq),
				}
				if codes != [3]int{200, 200, 200} || len(batch.Answers) != 1 {
					h.t.Errorf("race: queries answered %v", codes)
					return
				}
				for _, e := range []uint64{knn.Epoch, batch.Epoch, rq.Epoch} {
					if e < last {
						h.t.Errorf("race: epoch fell from %d to %d", last, e)
						return
					}
					last = e
				}
				seen := map[int]bool{}
				for _, r := range knn.Results {
					seen[r.ID] = true
				}
				for id := range h.live {
					if !seen[id] && k == len(h.live)+8 {
						h.t.Errorf("race: k-NN over everything misses id %d (an inconsistent snapshot)", id)
						return
					}
				}
				for _, res := range [][]resultJSON{knn.Results, batch.Answers[0].Results, rq.Results} {
					if why := sound(q, res, stored); why != "" {
						h.t.Errorf("%+v step %d race: %s", h.cfg, h.step, why)
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	if h.t.Failed() {
		h.t.FailNow()
	}
	for id := base; id < base+8; id++ {
		h.dead = append(h.dead, id)
	}
	h.maxID = max(h.maxID, base+7)
	h.epoch += uint64(iters * (4 + len(groups) + 8))
	h.queries += 2 * iters * 3
	h.ingested += 8 * iters
	h.deleted += 8 * iters
	h.checkState()
}

// finish runs the end-of-run checks: the shard layout in /readyz and
// /metrics, the request and search counters since the last start, pprof, and
// — with a twin — equal WAL bytes. It logs the recall.
func (h *harness) finish() {
	h.t.Helper()
	var ready struct {
		Status  string `json:"status"`
		Shards  int    `json:"shards"`
		Durable bool   `json:"durable"`
	}
	if code := h.call("GET", "/readyz", nil, &ready); code != http.StatusOK || ready.Status != "ready" ||
		ready.Shards != h.cfg.shards || ready.Durable != (h.mem != nil) {
		h.fail("/readyz %d %+v", code, ready)
	}
	var met struct {
		Requests map[string]int          `json:"requests"`
		Latency  map[string]histSnapshot `json:"latency"`
		Search   struct {
			Queries, Measured, Candidates int
			PruningRatio                  float64 `json:"pruning_ratio"`
		} `json:"search"`
		Index struct {
			Shards, Size, Ingested, Deleted int
			// Gone with the tree, COW/EBR and compaction.
			Tree        any `json:"tree"`
			Compactions any `json:"compactions"`
			ReclaimLag  any `json:"reclaim_lag_slots"`
		} `json:"index"`
		Shards []struct {
			WALUnsynced *int `json:"wal_unsynced"`
			SnapshotSeq *int `json:"snapshot_seq"`
		} `json:"shards"`
		Durability struct {
			WALStreams int `json:"wal_streams"`
		} `json:"durability"`
	}
	h.call("GET", "/metrics", nil, &met)
	ix := met.Index
	if !maps.Equal(met.Requests, h.reqs) || met.Search.Queries != h.queries || ix.Size != len(h.live) ||
		ix.Ingested != h.ingested || ix.Deleted != h.deleted || ix.Tree != nil || ix.Compactions != nil || ix.ReclaimLag != nil {
		h.fail("/metrics requests %v, queries %d, index %+v; sent %v, %d queries, %d ingested, %d deleted, %d live",
			met.Requests, met.Search.Queries, ix, h.reqs, h.queries, h.ingested, h.deleted, len(h.live))
	}
	for name, n := range h.reqs {
		if met.Latency[name].Count != uint64(n) {
			h.fail("/metrics latency of %s counts %d requests, %d sent", name, met.Latency[name].Count, n)
		}
	}
	if sr := met.Search; sr.Candidates > 0 && (sr.PruningRatio <= 0 || sr.PruningRatio > 1 ||
		sr.PruningRatio != float64(sr.Measured)/float64(sr.Candidates)) {
		h.fail("/metrics search %+v", sr)
	}
	h.spared = met.Search.Candidates - met.Search.Measured
	if ix.Shards != h.cfg.shards || len(met.Shards) != h.cfg.shards {
		h.fail("/metrics shard layout: index.shards %d, %d shard documents", ix.Shards, len(met.Shards))
	}
	if h.mem != nil {
		for i, sd := range met.Shards {
			if sd.WALUnsynced == nil || sd.SnapshotSeq == nil || met.Durability.WALStreams != h.cfg.shards {
				h.fail("/metrics shard %d: %+v, %d WAL streams", i, sd, met.Durability.WALStreams)
			}
		}
	}
	if code := h.call("GET", "/debug/pprof/", nil, nil); code != http.StatusOK {
		h.fail("pprof answered %d", code)
	}
	if h.twin != nil && !reflect.DeepEqual(memFiles(h.t, h.mem), memFiles(h.t, h.twinMem)) {
		h.fail("single ingests and batches of one left different WAL bytes")
	}
	if h.hits != h.truth {
		h.fail("recall %d/%d: the served answers missed true neighbours", h.hits, h.truth)
	}
	h.t.Logf("%+v: %d restarts, %d writes in doubt (%d IDs recovered), recall %d/%d",
		h.cfg, h.restarts, h.doubted, h.adopted, h.hits, h.truth)
}

// TestServerEndToEnd: the served mix on one in-memory shard.
func TestServerEndToEnd(t *testing.T) {
	if h := modelRun(t, modelConfig{shards: 1, n: 64, seed: 5}, randomTape(5, 60, mixOps)); h.spared <= 0 {
		t.Fatal("the flat filter spared no exact distance")
	}
}

// TestServerShardedEndToEnd: the served mix on four durable shards, then a
// clean restart and queries over the recovered shards.
func TestServerShardedEndToEnd(t *testing.T) {
	tape := append(randomTape(41, 60, mixOps), op{opRestart, 0}, op{opKNN, 2}, op{opKNNBatch, 10}, op{opRange, 0})
	modelRun(t, modelConfig{shards: 4, fs: memFS, n: 64, seed: 41}, tape)
}

// TestServerIngestBatch: a batch-heavy tape beside a twin that takes every
// single ingest as a batch of one; the twins answer alike and leave the same
// WAL bytes.
func TestServerIngestBatch(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch of one/shards=%d", shards), func(t *testing.T) {
			w := weights{opIngest: 4, opBatch: 6, opDelete: 2, opKNN: 1, opSnapshot: 1}
			modelRun(t, modelConfig{shards: shards, fs: memFS, n: 64, twin: true, seed: 77}, randomTape(77, 40, w))
		})
	}
}

// TestServerConcurrentTraffic: the racing phase, in memory at one shard and
// durable at four.
func TestServerConcurrentTraffic(t *testing.T) {
	w := weights{opIngest: 3, opBatch: 2, opDelete: 1, opKNN: 1, opRace: 2}
	for _, cfg := range []modelConfig{{shards: 1, n: 48, seed: 77}, {shards: 4, fs: memFS, n: 48, seed: 78}} {
		t.Run(fmt.Sprintf("shards=%d", cfg.shards), func(t *testing.T) {
			modelRun(t, cfg, randomTape(cfg.seed, 20, w))
		})
	}
}

// TestServerCrashRecoveryProperty: crash tapes at 1, 4 and 7 shards over a
// FaultFS, with both crash kinds — the page cache lost at an op boundary, and
// a crash point inside a write — and clean restarts at M = 12 and 6.
func TestServerCrashRecoveryProperty(t *testing.T) {
	length := 40
	if testing.Short() {
		length = 30
	}
	w := mixOps
	w[opCrash], w[opRestart], w[opRace] = 3, 1, 1
	for _, shards := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := modelConfig{shards: shards, fs: faultFS, n: 64, seed: int64(500 + 100*shards)}
			if h := modelRun(t, cfg, randomTape(cfg.seed, length, w)); h.doubted == 0 || h.readmitted == 0 {
				t.Fatalf("%d writes in doubt, %d deleted IDs re-admitted after a restart: the tape exercised too little", h.doubted, h.readmitted)
			}
		})
	}
}

// TestServerLongSeriesCrashRecovery runs crash tapes at 1 and 4 shards on
// series either side of the WAL's size rule, then restarts at M = 12 and at
// M = 6. Full-precision series keep float64 values: at n = 1024 every ingest
// and snapshot logs the representation and a restart loads every live one;
// at n = 64 none is logged, the data directory holds exactly the bytes an
// op-1-only writer leaves, and a restart reduces everything. Six-decimal
// series take the decimal value form, which pays for the representation at
// n = 256 as at n = 1024. A restart under another M finds those tags stale and
// reduces. At n = 1024 every recovered row's chunk envelope is a fresh
// Insert's, bit for bit.
func TestServerLongSeriesCrashRecovery(t *testing.T) {
	length := 22
	if testing.Short() {
		length = 16
	}
	w := weights{opIngest: 7, opBatch: 1, opDelete: 2, opKNN: 1, opRange: 1, opSnapshot: 1, opCrash: 1}
	for _, shards := range []int{1, 4} {
		for _, arm := range []struct {
			n       int
			decimal bool
		}{{64, false}, {1024, false}, {256, true}, {1024, true}} {
			cfg := modelConfig{shards: shards, fs: memFS, n: arm.n, decimal: arm.decimal,
				reps: arm.n == 1024 || arm.decimal, shadow: arm.n == 64, seed: int64(900 + 100*shards + arm.n)}
			name := fmt.Sprintf("shards=%d/n=%d", shards, arm.n)
			if arm.decimal {
				name += "/six-decimals"
			}
			t.Run(name, func(t *testing.T) {
				modelRun(t, cfg, append(randomTape(cfg.seed, length, w), op{opCrash, 0}, op{opRestart, 1}))
			})
		}
	}
}

// FuzzServerModel decodes its bytes into an op tape, two bytes an op (the
// kind, then its variant), and runs it on in-memory and MemFS servers at 1
// and 4 shards.
func FuzzServerModel(f *testing.F) {
	for k := range numOpKinds {
		f.Add([]byte{byte(opIngest), 0, byte(opBatch), 0, byte(opIngest), 1, byte(k), 1, byte(opKNN), 3, byte(k), 0})
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var tape []op
		for i := 0; i+1 < len(raw) && len(tape) < 64; i += 2 {
			tape = append(tape, op{opKind(raw[i] % byte(numOpKinds)), raw[i+1]})
		}
		for _, fs := range []fsKind{inMemory, memFS} {
			for _, shards := range []int{1, 4} {
				modelRun(t, modelConfig{shards: shards, fs: fs, n: 16, seed: 1}, tape)
			}
		}
	})
}
