package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"
)

// env is where a run finds the server binary and may write.
type env struct {
	serverBin string
	tmp       string // scratch for data dirs; removed per run
}

// tally counts requests and failures; the reader and the writer goroutine
// of a racing round share it.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	findings  []string // the first few failures, for the report
}

func (t *tally) sent() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// probe times the host probe once (estimator.go). The reader and the writer
// of a racing round both call it, hence the lock.
func (o *outcome) probe() {
	d := probe()
	o.mu.Lock()
	o.probes = append(o.probes, d)
	o.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	if len(t.findings) < 10 {
		t.findings = append(t.findings, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// searchWork sums the server-reported GEMINI work over the k-NN list.
type searchWork struct {
	queries, measured, filtered, nodes int
}

// outcome is everything one child-process run measured.
type outcome struct {
	tally

	knn, ranges, batches, ingests, batchIngs, deletes *class

	spawnS    []float64   // spawn → /readyz 200, one per set-up
	loadMS    [][]float64 // [set-up][bulk-load request] service time
	recoverS  []float64   // SIGKILL → respawn → /readyz 200
	rssMiB    float64     // max VmHWM over the server instances
	heapMiB   float64     // live heap (HeapAlloc after a forced GC) after the last round
	diskBytes int64       // data dir after the last round, all writes undone
	work      searchWork
	expected  int             // oracle answer elements owed over all recorded answers
	missed    int             // of those, how many the answers lacked
	probes    []time.Duration // the host probe, one after every timed request
	roundAt   []int           // len(probes) when each round began
	metrics   []byte          // the server's /metrics document after the last round
	span      time.Duration
	idle      time.Duration // of span, spent waiting for a round's turn
}

// runner drives one server through set-up, the rounds and the restarts.
type runner struct {
	ctx  context.Context
	env  env
	in   *inputs
	out  *outcome
	srv  *child
	dir  string
	read *conn
	wr   *conn
	race bool // reader and writer at once
}

// knnBody / batchBody are the response shapes the verifier reads.
type knnBody struct {
	Results []hit `json:"results"`
	Stats   struct {
		Measured     int `json:"measured"`
		Filtered     int `json:"filtered"`
		NodesVisited int `json:"nodes_visited"`
	} `json:"stats"`
}

type batchBody struct {
	Answers []knnBody `json:"answers"`
}

// send issues one request, records its sample into c (when c is non-nil)
// and returns the body if the status was the expected one.
func (r *runner) send(cn *conn, c *class, i int, req *request) []byte {
	r.out.sent()
	d, status, body, err := cn.do(r.srv.base, req)
	if err != nil {
		r.out.fail("%s %s: %v", req.method, req.path, err)
		return nil
	}
	if status != req.want {
		r.out.fail("%s %s: status %d, want %d: %.200s", req.method, req.path, status, req.want, body)
		return nil
	}
	if c != nil {
		c.add(i, d)
		r.out.probe()
	}
	return body
}

// reads says how much of each read list to play.
type reads struct{ knn, ranges, batches int }

func (in *inputs) allReads() reads { return reads{len(in.knn), len(in.ranges), len(in.batches)} }

// sample is the short untimed pass used to warm a fresh server and to
// re-check a recovered one.
func (in *inputs) sampleReads() reads {
	return reads{min(16, len(in.knn)), min(4, len(in.ranges)), min(1, len(in.batches))}
}

// playReads sends a prefix of the k-NN, range and batch lists and judges
// every answer against the oracle. Samples, search work and recall are
// recorded only when record is set.
func (r *runner) playReads(cn *conn, n reads, record bool) {
	in, out := r.in, r.out
	pick := func(c *class) *class {
		if record {
			return c
		}
		return nil
	}
	judged := func(what string, expected, missed int, err error) {
		if err != nil {
			out.fail("%s: %v", what, err)
		} else if record {
			out.expected += expected
			out.missed += missed
		}
	}
	for i := 0; i < n.knn; i++ {
		body := r.send(cn, pick(out.knn), i, &in.knn[i])
		if body == nil {
			continue
		}
		var resp knnBody
		if err := json.Unmarshal(body, &resp); err != nil {
			out.fail("knn %d: %v", i, err)
			continue
		}
		missed, err := in.oracle.judgeKNN(i, resp.Results, knnK)
		judged(fmt.Sprintf("knn %d", i), knnK, missed, err)
		if record {
			out.work.queries++
			out.work.measured += resp.Stats.Measured
			out.work.filtered += resp.Stats.Filtered
			out.work.nodes += resp.Stats.NodesVisited
		}
	}
	for i := 0; i < n.ranges; i++ {
		body := r.send(cn, pick(out.ranges), i, &in.ranges[i])
		if body == nil {
			continue
		}
		var resp knnBody
		if err := json.Unmarshal(body, &resp); err != nil {
			out.fail("range %d: %v", i, err)
			continue
		}
		missed, err := in.oracle.judgeRange(i, resp.Results)
		judged(fmt.Sprintf("range %d", i), len(in.oracle.truths[i].within), missed, err)
	}
	for bi := 0; bi < n.batches; bi++ {
		body := r.send(cn, pick(out.batches), bi, &in.batches[bi])
		if body == nil {
			continue
		}
		var resp batchBody
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Answers) != batchQueries {
			out.fail("batch %d: %d answers, err %v", bi, len(resp.Answers), err)
			continue
		}
		for j, a := range resp.Answers {
			missed, err := in.oracle.judgeKNN(in.batchQuery(bi, j), a.Results, knnK)
			judged(fmt.Sprintf("batch %d query %d", bi, j), knnK, missed, err)
		}
	}
}

// playIngests stores every written series: singles, then batches.
func (r *runner) playIngests(cn *conn) {
	for i := range r.in.ingests {
		r.send(cn, r.out.ingests, i, &r.in.ingests[i])
	}
	for i := range r.in.batchIngs {
		r.send(cn, r.out.batchIngs, i, &r.in.batchIngs[i])
	}
}

// playDeletes removes every written series again. A 404 here after a
// restart is an acknowledged write the server lost.
func (r *runner) playDeletes(cn *conn) {
	for i := range r.in.deletes {
		r.send(cn, r.out.deletes, i, &r.in.deletes[i])
	}
}

// expectSize checks the series count /readyz reports.
func (r *runner) expectSize(when string, want int) {
	r.out.sent()
	var doc struct {
		IndexSize int `json:"index_size"`
	}
	body, err := get(r.srv.base + "/readyz")
	if err == nil {
		err = json.Unmarshal(body, &doc)
	}
	if err != nil || doc.IndexSize != want {
		r.out.fail("%s: index holds %d series, want %d (err %v)", when, doc.IndexSize, want, err)
	}
}

// setUp starts a server on a fresh data directory and bulk-loads the base
// data, timing the spawn and every load request.
func (r *runner) setUp() error {
	dir, err := os.MkdirTemp(r.env.tmp, "data-")
	if err != nil {
		return err
	}
	r.dir = dir
	start := time.Now()
	r.srv, err = startChild(r.ctx, r.env.serverBin, serverFlags(dir, r.in.spec.shards))
	if err != nil {
		return err
	}
	r.out.spawnS = append(r.out.spawnS, time.Since(start).Seconds())
	load := newClass(len(r.in.load))
	for i := range r.in.load {
		r.send(r.wr, load, i, &r.in.load[i])
	}
	ms := make([]float64, len(load.samples))
	for i, s := range load.samples {
		if len(s) == 0 {
			return fmt.Errorf("bulk load request %d failed: %v", i, r.out.findings)
		}
		ms[i] = float64(s[0]) / 1e6
	}
	r.out.loadMS = append(r.out.loadMS, ms)
	r.expectSize("after bulk load", r.in.spec.n)
	return nil
}

// tearDown records the server's peak memory, kills it and removes its data.
func (r *runner) tearDown() {
	if r.srv != nil {
		r.out.rssMiB = max(r.out.rssMiB, r.srv.peakRSSMiB())
		r.srv.kill()
		r.srv = nil
	}
	r.read.close()
	r.wr.close()
	if r.dir != "" {
		_ = os.RemoveAll(r.dir) // scratch data; the parent tmp dir is removed by main as well
		r.dir = ""
	}
}

// restart kills the server with SIGKILL while the round's writes are live,
// respawns it on the same data directory and times the way back to ready.
// Every acknowledged write must have survived.
func (r *runner) restart() error {
	r.out.rssMiB = max(r.out.rssMiB, r.srv.peakRSSMiB())
	start := time.Now()
	r.srv.kill()
	r.read.close()
	r.wr.close()
	srv, err := startChild(r.ctx, r.env.serverBin, serverFlags(r.dir, r.in.spec.shards))
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.srv = srv
	r.out.recoverS = append(r.out.recoverS, time.Since(start).Seconds())

	r.expectSize("after restart", r.in.spec.n+r.in.spec.writes())
	return nil
}

// round plays every list once: reads on one connection, writes on the
// other, one request at a time. With race set (the traced run of a workload
// that asks for it) the writer instead cycles ingest → delete for as long as
// the reader is busy, so every read races a write. Either way the reads end
// with the round's series live, which is when a restart round lands its
// kill; the deletes then bring the index back to the base data.
func (r *runner) round(restartAfter bool) error {
	if r.race {
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			r.playReads(r.read, r.in.allReads(), true)
		}()
		for busy := true; busy; {
			r.playIngests(r.wr)
			select {
			case <-readerDone:
				busy = false
			default:
				r.playDeletes(r.wr)
			}
		}
	} else {
		r.playReads(r.read, r.in.allReads(), true)
		r.playIngests(r.wr)
	}
	if restartAfter {
		if err := r.restart(); err != nil {
			return err
		}
	}
	r.playDeletes(r.wr)
	if restartAfter {
		// Back on the base data: the recovered index must answer like the
		// original one.
		r.expectSize("after deletes", r.in.spec.n)
		r.playReads(r.read, r.in.sampleReads(), false)
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { // a vanished file just is not counted
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// plan is how one child-process run spends its time.
type plan struct {
	span        time.Duration // the measured rounds are paced evenly over it
	rounds      int           // as many as a host at its usual speed fits into span
	restarts    int           // SIGKILL cycles, spread evenly over the rounds
	extraSetups int           // further bulk loads on fresh servers after the rounds
	race        bool          // reads and writes at once (see runner.round)
}

// runServer is one child-process run: set-up, the rounds with the restart
// cycles in between, then the remaining set-ups on fresh servers. Round i
// starts no earlier than i/rounds of the span, so a fast host samples every
// request at even intervals over the whole span; a host too slow for that
// stops at the span's end with the rounds it has, so that a run's length is
// the host's to stretch by one round at most.
func runServer(ctx context.Context, e env, in *inputs, p plan) (*outcome, error) {
	out := &outcome{
		knn: newClass(len(in.knn)), ranges: newClass(len(in.ranges)), batches: newClass(len(in.batches)),
		ingests: newClass(len(in.ingests)), batchIngs: newClass(len(in.batchIngs)), deletes: newClass(len(in.deletes)),
	}
	in.oracle.racing = p.race
	r := &runner{ctx: ctx, env: e, in: in, out: out, race: p.race, read: newConn(), wr: newConn()}
	defer r.tearDown()

	if err := r.setUp(); err != nil {
		return nil, err
	}
	// A short untimed pass warms the server's pools and the connections, so
	// round one is not a cold-start sample.
	r.playReads(r.read, in.sampleReads(), false)

	every := max(p.rounds/p.restarts, 1)
	start := time.Now()
	for i := 0; i < p.rounds; i++ {
		if wait := time.Until(start.Add(p.span * time.Duration(i) / time.Duration(p.rounds))); wait > 0 {
			out.idle += wait
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if i >= minRounds && time.Since(start) >= p.span {
			break
		}
		out.roundAt = append(out.roundAt, len(out.probes))
		if err := r.round((i+1)%every == 0 && len(out.recoverS) < p.restarts); err != nil {
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	out.span = time.Since(start)

	out.diskBytes = dirBytes(r.dir)
	var err error
	if out.metrics, err = get(r.srv.base + "/metrics"); err != nil {
		return nil, err
	}
	if out.heapMiB, err = liveHeapMiB(r.srv.base); err != nil {
		return nil, err
	}
	for i := 0; i < p.extraSetups; i++ {
		r.tearDown()
		if err := r.setUp(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

var heapAllocRE = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)$`)

// liveHeapMiB asks the server's heap profile endpoint to collect garbage
// and report what is left: the memory the stored data really occupies,
// without the garbage collector's timing in it.
func liveHeapMiB(base string) (float64, error) {
	body, err := get(base + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	m := heapAllocRE.FindSubmatch(body)
	if m == nil {
		return 0, errors.New("heap profile carries no HeapAlloc line")
	}
	n, err := strconv.ParseFloat(string(m[1]), 64)
	return n / (1 << 20), err
}
