package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sapla/internal/core"
	"sapla/internal/index"
	"sapla/internal/repr"
	"sapla/internal/ts"
	"sapla/internal/tsio"
	"sapla/internal/wal"
)

// durableConfig returns a Config wired to an in-memory WAL filesystem.
func durableConfig(fsys wal.FS, syncEvery int) Config {
	return durableShardedConfig(fsys, syncEvery, 1)
}

// durableShardedConfig is durableConfig at an explicit shard count.
func durableShardedConfig(fsys wal.FS, syncEvery, shards int) Config {
	return Config{
		WALFS:         fsys,
		SyncEvery:     syncEvery,
		Shards:        shards,
		SnapshotEvery: -1, // snapshots driven explicitly via snapshotNow
		Workers:       2,
	}
}

// knnIDs posts one k-NN query and returns the answer as (id, dist) pairs.
func knnIDs(t *testing.T, client *http.Client, base string, q ts.Series, k int) []resultJSON {
	t.Helper()
	var resp knnResponse
	code := doJSON(t, client, "POST", base+"/v1/knn",
		map[string]any{"values": q, "k": k}, &resp)
	if code != http.StatusOK {
		t.Fatalf("knn: status %d", code)
	}
	return resp.Results
}

// contents returns every committed series of s, read from each shard's flat
// tier under the shard's mu, as ID → the bits of its values.
func contents(s *Server) map[int][]uint64 {
	out := map[int][]uint64{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.flat.Each(func(e *index.Entry) { out[e.ID] = seriesBits(e.Raw) })
		sh.mu.Unlock()
	}
	return out
}

// bitsOf renders a set of series the way contents does.
func bitsOf(set map[int]ts.Series) map[int][]uint64 {
	out := make(map[int][]uint64, len(set))
	for id, v := range set {
		out[id] = seriesBits(v)
	}
	return out
}

func seriesBits(v ts.Series) []uint64 {
	bits := make([]uint64, len(v))
	for i, x := range v {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// rawShadow writes what a test acknowledges to a second data directory
// through the store's own calls, with nothing but IDs and values: the bytes a
// writer of bare values leaves. A server's data directory must equal it. A
// nil shadow ignores everything.
type rawShadow struct {
	mem  *wal.MemFS
	recs []wal.ShardRecovery
	live []map[int]ts.Series // per shard
}

func newRawShadow(t *testing.T, shards int) *rawShadow {
	t.Helper()
	mem := wal.NewMemFS()
	recs, err := wal.OpenSharded(mem, shards, wal.Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	live := make([]map[int]ts.Series, shards)
	for i := range live {
		live[i] = map[int]ts.Series{}
	}
	return &rawShadow{mem: mem, recs: recs, live: live}
}

func (r *rawShadow) ingest(t *testing.T, id int, v ts.Series) {
	if r == nil {
		return
	}
	si := index.ShardOf(id, len(r.recs))
	if err := r.recs[si].Store.AppendIngestBatch([]wal.Series{{ID: int64(id), Values: v}}); err != nil {
		t.Fatal(err)
	}
	r.live[si][id] = v
}

func (r *rawShadow) delete(t *testing.T, id int) {
	if r == nil {
		return
	}
	si := index.ShardOf(id, len(r.recs))
	if err := r.recs[si].Store.AppendDelete(int64(id)); err != nil {
		t.Fatal(err)
	}
	delete(r.live[si], id)
}

// snapshot seals and snapshots every shard in order, as snapshotNow does.
func (r *rawShadow) snapshot(t *testing.T) {
	if r == nil {
		return
	}
	for si, rec := range r.recs {
		sealed, err := rec.Store.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		series := make([]wal.Series, 0, len(r.live[si]))
		for id, v := range r.live[si] {
			series = append(series, wal.Series{ID: int64(id), Values: v})
		}
		sort.Slice(series, func(a, b int) bool { return series[a].ID < series[b].ID })
		if err := rec.Store.WriteSnapshot(sealed, series); err != nil {
			t.Fatal(err)
		}
	}
}

// memFiles returns every file of mem with its bytes.
func memFiles(t *testing.T, mem *wal.MemFS) map[string][]byte {
	t.Helper()
	names, err := mem.List()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range names {
		if out[name], err = mem.ReadFile(name); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestServerWALRecordForms: /metrics counts the ingest records every shard's
// log took in each value form. Six-decimal series, single or in a batch, are
// decimal; full-precision ones are float64. Deletes and snapshots count for
// nothing.
func TestServerWALRecordForms(t *testing.T) {
	const n = 32
	mem := wal.NewMemFS()
	s, hs := newTestServer(t, durableShardedConfig(mem, 1, 2))
	client := hs.Client()
	rng := rand.New(rand.NewSource(31))
	items := make([]map[string]any, 3)
	for i := range items {
		items[i] = map[string]any{"values": wireSeries(rng, n)}
	}
	if code := doJSON(t, client, "POST", hs.URL+"/v1/ingest/batch", map[string]any{"series": items}, nil); code != http.StatusCreated {
		t.Fatalf("batch ingest: status %d", code)
	}
	ingestOne(t, client, hs.URL, nil, wireSeries(rng, n))
	for i := 0; i < 2; i++ {
		ingestOne(t, client, hs.URL, nil, randWalk(rng, n))
	}
	if code := doJSON(t, client, "DELETE", hs.URL+"/v1/series/0", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if err := s.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Durability map[string]any `json:"durability"`
	}
	if code := doJSON(t, client, "GET", hs.URL+"/metrics", nil, &doc); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	if d := doc.Durability; d["wal_records_decimal"] != float64(4) || d["wal_records_f64"] != float64(2) {
		t.Fatalf("wal records decimal %v, f64 %v; want 4 and 2", d["wal_records_decimal"], d["wal_records_f64"])
	}
	walRecords(t, mem)
}

// walRecords decodes every record of mem's segments and snapshots, failing
// the test on a byte that does not parse — an op-3 record or a
// representation tail among them.
func walRecords(t *testing.T, mem *wal.MemFS) []tsio.WALRecord {
	t.Helper()
	var out []tsio.WALRecord
	decode := func(name string, payload []byte) {
		rec, err := tsio.DecodeWALRecord(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, rec)
	}
	for name, data := range memFiles(t, mem) {
		switch {
		case strings.HasSuffix(name, ".log"):
			for off := 0; off < len(data); {
				n := int(binary.LittleEndian.Uint32(data[off:]))
				decode(name, data[off+8:off+8+n])
				off += 8 + n
			}
		case strings.HasSuffix(name, ".snap"):
			for off := 12; off < len(data)-4; {
				n := int(binary.LittleEndian.Uint32(data[off:]))
				decode(name, data[off+4:off+4+n])
				off += 4 + n
			}
		}
	}
	return out
}

// writeRepLog writes a data directory of shards streams the way a server
// that logged representations wrote it: a version-3 manifest; per shard,
// snapshot 1 holding the shard's series of snap (no snapshot when snap is
// nil), and segment 2 holding its series of logged followed by a delete of
// each ID of gone. Every ingest record is that server's: the SAPLA
// representation at M = 12 rides on six-decimal values in op 4 and on float64
// values of 728 points or more in op 3, and float64 values below that are op
// 1. The representation follows the values: its tag (method 1, generation
// 1, M), its segment count, and per segment A and B as float64 bits and R as
// uint32.
func writeRepLog(t testing.TB, mem *wal.MemFS, shards int, snap, logged map[int]ts.Series, gone []int) {
	t.Helper()
	red := core.NewReducer()
	record := func(id int, v ts.Series) []byte {
		b, err := tsio.AppendWALRecord(nil, tsio.WALRecord{Op: tsio.WALIngestDecimal, ID: int64(id), Values: v})
		if errors.Is(err, tsio.ErrWALNotDecimal) {
			b, err = tsio.AppendWALRecord(nil, tsio.WALRecord{Op: tsio.WALIngest, ID: int64(id), Values: v})
			if len(v) < 728 {
				return b
			}
			b[0] = 3
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, err := red.ReduceInto(repr.Linear{}, v, 12)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, 1, 1, 0)
		b = binary.LittleEndian.AppendUint32(b, 12)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rep.Segs)))
		for _, s := range rep.Segs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Line.A))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.Line.B))
			b = binary.LittleEndian.AppendUint32(b, uint32(s.R))
		}
		return b
	}
	put := func(name string, data []byte) {
		f, err := mem.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	put("shards.meta", []byte(fmt.Sprintf("SAPLSHD3 count=%d\n", shards)))
	for si := 0; si < shards; si++ {
		ns := ""
		if si > 0 {
			ns = fmt.Sprintf("s%04d-", si)
		}
		var ids []int
		for id := range snap {
			if index.ShardOf(id, shards) == si {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		if snap != nil {
			image := binary.LittleEndian.AppendUint32([]byte("SAPLSNP1"), uint32(len(ids)))
			for _, id := range ids {
				b := record(id, snap[id])
				image = append(binary.LittleEndian.AppendUint32(image, uint32(len(b))), b...)
			}
			put(ns+"snap-0000000000000001.snap", binary.LittleEndian.AppendUint32(image, crc32.Checksum(image, castagnoli)))
		}

		var frames []byte
		frame := func(payload []byte) {
			frames = binary.LittleEndian.AppendUint32(frames, uint32(len(payload)))
			frames = binary.LittleEndian.AppendUint32(frames, crc32.Checksum(payload, castagnoli))
			frames = append(frames, payload...)
		}
		ids = ids[:0]
		for id := range logged {
			if index.ShardOf(id, shards) == si {
				ids = append(ids, id)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			frame(record(id, logged[id]))
		}
		for _, id := range gone {
			if index.ShardOf(id, shards) == si {
				b, err := tsio.AppendWALRecord(nil, tsio.WALRecord{Op: tsio.WALDelete, ID: int64(id)})
				if err != nil {
					t.Fatal(err)
				}
				frame(b)
			}
		}
		put(ns+"wal-0000000000000002.log", frames)
	}
}

// TestServerRefusesRepresentationLogs: a data directory written by a server
// that logged every ingest's representation — op 3 and op 4 records carrying
// one, in its log and its snapshots — is refused at 1 and 4 shards and at 256
// and 1024 points: New returns ErrCorruptSnapshot naming the op, or, from the
// log alone, ErrCorruptWAL, and leaves every byte of the directory as it was,
// so a server that still reads it can migrate it with one snapshot.
func TestServerRefusesRepresentationLogs(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, n := range []int{256, 1024} {
			t.Run(fmt.Sprintf("shards=%d/n=%d", shards, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(shards*n + 3)))
				snap, logged := map[int]ts.Series{}, map[int]ts.Series{}
				for id := 0; id < 48; id++ {
					v := randWalk(rng, n)
					if id%2 == 0 {
						v = wireSeries(rng, n)
					}
					if id < 24 {
						snap[id] = v
					} else {
						logged[id] = v
					}
				}
				for _, tc := range []struct {
					snap map[int]ts.Series
					want error
				}{{snap, wal.ErrCorruptSnapshot}, {nil, wal.ErrCorruptWAL}} {
					mem := wal.NewMemFS()
					writeRepLog(t, mem, shards, tc.snap, logged, []int{1, 2, 30})
					before := memFiles(t, mem)
					s, err := New(durableShardedConfig(mem, 1, shards))
					if err == nil {
						_ = s.Shutdown(context.Background())
					}
					if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), "op 4") && !strings.Contains(err.Error(), "op: 3") {
						t.Fatalf("New: %v, want %v naming op 3 or 4", err, tc.want)
					}
					if !reflect.DeepEqual(memFiles(t, mem), before) {
						t.Fatal("the refused directory changed")
					}
				}
			})
		}
	}
}

// freshEnvelopes requires every row of s to keep a chunk envelope, and each
// to hold the bits a fresh flat tier's Insert of the same entry computes.
func freshEnvelopes(t *testing.T, s *Server) {
	t.Helper()
	for _, sh := range s.shards {
		sh.mu.Lock()
		fresh := index.NewFlat()
		sh.flat.Each(func(e *index.Entry) {
			if err := fresh.Insert(&index.Entry{ID: e.ID, Raw: e.Raw}); err != nil {
				t.Fatal(err)
			}
		})
		sh.flat.Each(func(e *index.Entry) {
			gv, gs, ok := sh.flat.Envelope(e.ID)
			wv, ws, _ := fresh.Envelope(e.ID)
			if !ok || len(gv) != len(wv) || math.Float32bits(gs) != math.Float32bits(ws) {
				t.Fatalf("id %d: recovered row keeps envelope %v of %d values with slack %v, a fresh insert %d values with %v", e.ID, ok, len(gv), gs, len(wv), ws)
			}
			for j := range gv {
				if math.Float32bits(gv[j]) != math.Float32bits(wv[j]) {
					t.Fatalf("id %d value %d: recovered envelope %v, a fresh insert %v", e.ID, j, gv[j], wv[j])
				}
			}
		})
		sh.mu.Unlock()
	}
}

// TestServerShutdownDrain: with a large group-commit batch the WAL may hold
// acknowledged-but-unsynced records — a clean Shutdown must flush and sync
// them, so no acknowledged write is lost across a graceful restart.
func TestServerShutdownDrain(t *testing.T) {
	mem := wal.NewMemFS()
	s, hs := newTestServer(t, durableConfig(mem, 50))
	rng := rand.New(rand.NewSource(7))
	acked := map[int]ts.Series{}
	for i := 0; i < 9; i++ {
		v := randWalk(rng, 32)
		resp := ingestOne(t, hs.Client(), hs.URL, nil, v)
		acked[resp.ID] = v
	}
	if s.shards[0].store.Unsynced() == 0 {
		t.Fatal("test expects unsynced records before shutdown")
	}
	hs.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Even a crash after the clean shutdown loses nothing.
	mem.Crash(nil)

	rec, _ := newTestServer(t, durableConfig(mem, 1))
	if got := contents(rec); !reflect.DeepEqual(got, bitsOf(acked)) {
		t.Fatalf("recovered %d series, acknowledged %d, contents differ", len(got), len(acked))
	}
}

// TestServerReadyz: /readyz tracks the lifecycle while /healthz stays green,
// and a draining server refuses new API work with 503.
func TestServerReadyz(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	client := hs.Client()
	var body map[string]any
	if code := doJSON(t, client, "GET", hs.URL+"/readyz", nil, &body); code != http.StatusOK {
		t.Fatalf("ready server: /readyz = %d", code)
	}
	if body["status"] != "ready" || body["durable"] != false {
		t.Fatalf("ready body: %+v", body)
	}

	s.state.Store(stateDraining)
	if code := doJSON(t, client, "GET", hs.URL+"/readyz", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server: /readyz = %d", code)
	}
	if body["status"] != "draining" {
		t.Fatalf("draining body: %+v", body)
	}
	if code := doJSON(t, client, "GET", hs.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("draining server: /healthz = %d", code)
	}
	code := doJSON(t, client, "POST", hs.URL+"/v1/ingest",
		map[string]any{"values": []float64{1, 2, 3, 4}}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining server admitted ingest: %d", code)
	}
}

// TestServerLoadShedding: when an endpoint class's admission semaphore is
// full, requests shed immediately with 429 + Retry-After and are counted,
// and the other class keeps being admitted.
func TestServerLoadShedding(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, MaxInflightSearch: 1})
	client := hs.Client()
	ingestOne(t, client, hs.URL, nil, randWalk(rand.New(rand.NewSource(3)), 32))

	// Occupy the only search slot.
	s.searchSem <- struct{}{}
	defer func() { <-s.searchSem }()

	req, err := http.NewRequest("POST", hs.URL+"/v1/knn", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated search: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if got := s.metrics.shed.Get("knn"); got == nil || got.String() != "1" {
		t.Fatalf("shed counter: %v", got)
	}
	// Writes use a separate semaphore and still flow.
	ingestOne(t, client, hs.URL, nil, randWalk(rand.New(rand.NewSource(4)), 32))
}

// TestServerWALAppendFailure: an fsync failure rejects the write with 503
// and changes nothing a client can see — a rejected ingest is not visible and
// keeps no claim, a rejected delete leaves its series served; the store fails
// stop, so later writes also answer 503 while reads keep serving; restart
// recovers exactly the acknowledged series. The same through a single ingest,
// a batch of one and a delete.
func TestServerWALAppendFailure(t *testing.T) {
	const n = 32
	type write struct {
		name string
		// do sends the write once and returns its status and error body.
		do func(t *testing.T, hs *httptest.Server, rng *rand.Rand) (int, string)
	}
	const victim = 2 // the acknowledged series the delete targets
	writes := []write{{"DELETE", func(t *testing.T, hs *httptest.Server, _ *rand.Rand) (int, string) {
		var errBody errorResponse
		code := doJSON(t, hs.Client(), "DELETE", fmt.Sprintf("%s/v1/series/%d", hs.URL, victim), nil, &errBody)
		return code, errBody.Error
	}}}
	for _, ep := range ingestEndpoints {
		writes = append(writes, write{ep.path, func(t *testing.T, hs *httptest.Server, rng *rand.Rand) (int, string) {
			var errBody errorResponse
			code := doJSON(t, hs.Client(), "POST", hs.URL+ep.path, ep.body(50, randWalk(rng, n)), &errBody)
			return code, errBody.Error
		}})
	}
	for _, w := range writes {
		t.Run(w.name, func(t *testing.T) {
			mem := wal.NewMemFS()
			ffs := wal.NewFaultFS(mem)
			s, hs := newTestServer(t, durableConfig(ffs, 1))
			client := hs.Client()
			rng := rand.New(rand.NewSource(9))
			acked := map[int]ts.Series{}
			for i := 0; i < 5; i++ {
				v := randWalk(rng, n)
				resp := ingestOne(t, client, hs.URL, nil, v)
				acked[resp.ID] = v
			}
			var before, after ingestOutcome
			doJSON(t, client, "GET", hs.URL+"/healthz", nil, &before)

			ffs.FailSyncAt(ffs.Ops() + 2) // next append: write, then the failing sync
			if code, msg := w.do(t, hs, rng); code != http.StatusServiceUnavailable {
				t.Fatalf("over failed fsync: status %d (%s)", code, msg)
			}
			doJSON(t, client, "GET", hs.URL+"/healthz", nil, &after)
			if after != before {
				t.Fatalf("rejected write moved the index: %+v, then %+v", before, after)
			}
			// The delete's series is still served, as the log still holds it.
			if got := knnIDs(t, client, hs.URL, acked[victim], 1); got[0].ID != victim || got[0].Dist != 0 {
				t.Fatalf("k-NN of series %d after the rejected write: %+v", victim, got)
			}
			// The same write again: 503 from the broken store, not 409 from a
			// kept claim.
			if code, msg := w.do(t, hs, rng); code != http.StatusServiceUnavailable {
				t.Fatalf("on broken store: status %d (%s)", code, msg)
			}
			if !errors.Is(s.shards[0].store.Sync(), wal.ErrStoreBroken) {
				t.Fatal("store not fail-stopped after fsync error")
			}
			// Reads are unaffected by the broken write path.
			knnIDs(t, client, hs.URL, randWalk(rng, n), 3)

			hs.Close()
			mem.Crash(nil)
			rec, _ := newTestServer(t, durableConfig(mem, 1))
			if got := contents(rec); !reflect.DeepEqual(got, bitsOf(acked)) {
				t.Fatalf("recovered %d series, acknowledged %d, contents differ", len(got), len(acked))
			}
		})
	}
}

// syncGate wraps a wal.FS so a test can hold fsyncs: while armed, every
// File.Sync reports itself on entered and then waits for the release.
type syncGate struct {
	wal.FS
	// entered gets one token per held Sync. Its buffer exceeds the fsyncs of
	// any one write (one per shard it touches), so reporting never blocks.
	entered chan struct{}
	held    atomic.Pointer[chan struct{}] // non-nil while armed
}

func newSyncGate(fsys wal.FS) *syncGate {
	return &syncGate{FS: fsys, entered: make(chan struct{}, 64)}
}

// arm holds every later Sync until release is called; release is idempotent.
func (g *syncGate) arm() (release func()) {
	ch := make(chan struct{})
	g.held.Store(&ch)
	var once sync.Once
	return func() {
		once.Do(func() {
			g.held.Store(nil)
			close(ch)
		})
	}
}

func (g *syncGate) Create(name string) (wal.File, error) { return g.wrap(g.FS.Create(name)) }
func (g *syncGate) Append(name string) (wal.File, error) { return g.wrap(g.FS.Append(name)) }

func (g *syncGate) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, gate: g}, nil
}

type gatedFile struct {
	wal.File
	gate *syncGate
}

func (f gatedFile) Sync() error {
	if ch := f.gate.held.Load(); ch != nil {
		f.gate.entered <- struct{}{}
		<-*ch
	}
	return f.File.Sync()
}

// TestServerWriteInvisibleUntilLogged holds the WAL-before-visibility
// contract at runtime. Every write's fsync is held at a syncGate; while it is
// held the request has not been answered, /healthz's size and epoch have not
// moved, and a k-NN still sees the index as it was — without the series
// being ingested, with the series being deleted. Releasing the fsync answers
// 201 or 200 and the change becomes visible. Each write path, at 1 and 4
// shards; the batch's series are spread over every shard they hash to, and
// the test waits for each of their fsyncs.
func TestServerWriteInvisibleUntilLogged(t *testing.T) {
	const n = 32
	for _, shards := range []int{1, 4} {
		for _, op := range []string{"/v1/ingest", "/v1/ingest/batch", "DELETE"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, op), func(t *testing.T) {
				gate := newSyncGate(wal.NewMemFS())
				_, hs := newTestServer(t, durableShardedConfig(gate, 1, shards))
				client := hs.Client()
				rng := rand.New(rand.NewSource(int64(61 + shards)))
				stored := map[int]ts.Series{}
				for id := 0; id < 4; id++ {
					stored[id] = randWalk(rng, n)
					ingestOne(t, client, hs.URL, &id, stored[id])
				}

				// The write: the series it adds or removes, its request and
				// the status it must answer once logged.
				subject := map[int]ts.Series{}
				var method, path string
				var body any
				want := http.StatusCreated
				switch op {
				case "/v1/ingest":
					subject[10] = randWalk(rng, n)
					method, path, body = "POST", op, map[string]any{"id": 10, "values": subject[10]}
				case "/v1/ingest/batch":
					var items []map[string]any
					for id := 10; id < 13; id++ {
						subject[id] = randWalk(rng, n)
						items = append(items, map[string]any{"id": id, "values": subject[id]})
					}
					method, path, body = "POST", op, map[string]any{"series": items}
				case "DELETE":
					subject[2] = stored[2]
					method, path, body, want = "DELETE", "/v1/series/2", nil, http.StatusOK
				}
				syncs := map[int]bool{}
				for id := range subject {
					syncs[index.ShardOf(id, shards)] = true
				}
				var raw []byte
				if body != nil {
					var err error
					if raw, err = json.Marshal(body); err != nil {
						t.Fatal(err)
					}
				}

				var before ingestOutcome
				doJSON(t, client, "GET", hs.URL+"/healthz", nil, &before)
				release := gate.arm()
				t.Cleanup(release) // runs before the server's Close, which waits for the request
				answered := make(chan int, 1)
				go func() {
					req, err := http.NewRequest(method, hs.URL+path, bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						answered <- 0
						return
					}
					resp, err := client.Do(req)
					if err != nil {
						t.Error(err)
						answered <- 0
						return
					}
					resp.Body.Close()
					answered <- resp.StatusCode
				}()
				for range syncs {
					select {
					case <-gate.entered:
					case <-time.After(10 * time.Second):
						t.Fatalf("the write's fsyncs never reached the gate (%d expected)", len(syncs))
					}
				}

				// Held: nothing answered, nothing visible.
				select {
				case code := <-answered:
					t.Fatalf("answered %d before its WAL fsync returned", code)
				default:
				}
				var held ingestOutcome
				doJSON(t, client, "GET", hs.URL+"/healthz", nil, &held)
				if held != before {
					t.Fatalf("index moved while the WAL fsync was held: %+v, then %+v", before, held)
				}
				for id, v := range subject {
					got := knnIDs(t, client, hs.URL, v, 1)
					if present := got[0].ID == id && got[0].Dist == 0; present != (op == "DELETE") {
						t.Fatalf("k-NN of series %d while its write's fsync was held: %+v", id, got)
					}
				}

				release()
				if code := <-answered; code != want {
					t.Fatalf("answered %d once logged, want %d", code, want)
				}
				var after ingestOutcome
				doJSON(t, client, "GET", hs.URL+"/healthz", nil, &after)
				delta := len(subject)
				if op == "DELETE" {
					delta = -delta
				}
				if after.IndexSize != before.IndexSize+delta || after.Epoch <= before.Epoch {
					t.Fatalf("after the write: %+v, before it %+v", after, before)
				}
				for id, v := range subject {
					got := knnIDs(t, client, hs.URL, v, 1)
					if present := got[0].ID == id && got[0].Dist == 0; present == (op == "DELETE") {
						t.Fatalf("k-NN of series %d once its write was logged: %+v", id, got)
					}
				}
			})
		}
	}
}

// TestServerSnapshotBoundsReplay: after a snapshot, recovery replays only
// the records appended since it, and recovery metadata surfaces on /metrics.
func TestServerSnapshotBoundsReplay(t *testing.T) {
	mem := wal.NewMemFS()
	s, hs := newTestServer(t, durableConfig(mem, 1))
	client := hs.Client()
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		ingestOne(t, client, hs.URL, nil, randWalk(rng, 32))
	}
	if err := s.snapshotNow(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ingestOne(t, client, hs.URL, nil, randWalk(rng, 32))
	}
	hs.Close()
	mem.Crash(nil)

	rec, hrec := newTestServer(t, durableConfig(mem, 1))
	info, dur, ok := rec.Recovery()
	if !ok {
		t.Fatal("no recovery info")
	}
	if info.SnapshotSeries != 8 || info.Replayed != 3 {
		t.Fatalf("recovery info %+v: want 8 snapshot series, 3 replayed", info)
	}
	if dur <= 0 {
		t.Fatalf("non-positive recovery duration %v", dur)
	}
	var doc map[string]any
	if code := doJSON(t, hrec.Client(), "GET", hrec.URL+"/metrics", nil, &doc); code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	durab, ok := doc["durability"].(map[string]any)
	if !ok {
		t.Fatal("/metrics missing durability section")
	}
	if durab["recovery_replayed"] != float64(3) {
		t.Fatalf("durability section: %+v", durab)
	}
	// A snapshot ticker left running would leak; SnapshotEvery<0 means the
	// drain below must return promptly.
	done := make(chan error, 1)
	go func() { done <- rec.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung")
	}
}

// TestServerSnapshotTicker runs the background snapshot loop itself: with a
// short SnapshotEvery it snapshots on its own, Shutdown stops it promptly, and
// a restart recovers every acknowledged series from that snapshot alone.
func TestServerSnapshotTicker(t *testing.T) {
	mem := wal.NewMemFS()
	cfg := durableConfig(mem, 1)
	cfg.SnapshotEvery = 10 * time.Millisecond
	s, hs := newTestServer(t, cfg)
	rng := rand.New(rand.NewSource(23))
	acked := map[int]ts.Series{}
	for i := 0; i < 6; i++ {
		v := randWalk(rng, 32)
		acked[ingestOne(t, hs.Client(), hs.URL, nil, v).ID] = v
	}
	// The loop is sequential, so the second snapshot to finish from here on
	// started after the last ingest was acknowledged and covers all of them.
	after := s.metrics.snapshots.Value()
	for deadline := time.Now().Add(5 * time.Second); s.metrics.snapshots.Value() < after+2; {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot ticker took %d snapshots in 5s, want 2", s.metrics.snapshots.Value()-after)
		}
		time.Sleep(time.Millisecond)
	}
	hs.Close()

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung: the snapshot ticker ignored snapStop")
	}

	rec, _ := newTestServer(t, durableConfig(mem, 1))
	info, _, _ := rec.Recovery()
	if info.SnapshotSeries != len(acked) || info.Replayed != 0 {
		t.Fatalf("recovery info %+v: want all %d series from the snapshot, none replayed", info, len(acked))
	}
	if got := contents(rec); !reflect.DeepEqual(got, bitsOf(acked)) {
		t.Fatalf("recovered %d series from the ticker's snapshot, acknowledged %d, contents differ", len(got), len(acked))
	}
}
