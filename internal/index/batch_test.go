package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/ts"
)

// testQueries builds nq reduced queries against series of length n.
func testQueries(t testing.TB, nq, n, m int) []dist.Query {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	meth := core.New()
	out := make([]dist.Query, nq)
	for i := range out {
		raw := randWalk(rng, n)
		rep, err := meth.Reduce(raw, m)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = dist.NewQuery(raw, rep)
	}
	return out
}

// testIndexes builds every index flavour over the same entry set.
func testIndexes(t testing.TB, entries []*Entry, n, m int) map[string]Index {
	t.Helper()
	rt, err := NewRTree("SAPLA", n, m, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLinearScan()
	idxs := map[string]Index{"rtree": rt, "dbch": db, "linear": ls}
	for _, idx := range idxs {
		for _, e := range entries {
			if err := idx.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return idxs
}

// TestKNNWithMatchesKNN: the workspace search must return exactly what the
// convenience KNN path returns, query after query on a reused workspace.
func TestKNNWithMatchesKNN(t *testing.T) {
	entries := benchEntries(t, 200, 128, 12)
	queries := testQueries(t, 10, 128, 12)
	for name, idx := range testIndexes(t, entries, 128, 12) {
		ws := NewWorkspace()
		for qi, q := range queries {
			want, wantStats, err := idx.KNN(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := idx.KNNWith(ws, q, 8)
			if err != nil {
				t.Fatal(err)
			}
			if gotStats != wantStats {
				t.Fatalf("%s q%d: stats %+v, want %+v", name, qi, gotStats, wantStats)
			}
			if len(got) != len(want) {
				t.Fatalf("%s q%d: %d results, want %d", name, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s q%d result %d: %+v, want %+v", name, qi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestKNNWithAllocs is the zero-allocation contract of every k-NN entry
// point that takes a Workspace: once one search has sized the workspace, a
// search does not touch the heap. Each row builds its index from fresh
// entries, over more than two flat blocks so the sweep crosses a block
// boundary.
func TestKNNWithAllocs(t *testing.T) {
	const m, k = 12, 10
	flat := func(int) (Index, error) { return NewFlat(), nil }
	concurrent := func() (Index, error) { return NewConcurrent(NewFlat()), nil }
	knnWith := func(idx Index, ws *Workspace, q dist.Query) (SearchStats, error) {
		_, st, err := idx.KNNWith(ws, q, k)
		return st, err
	}
	knnSnapshot := func(idx Index, ws *Workspace, q dist.Query) (SearchStats, error) {
		_, st, _, err := idx.(*ConcurrentIndex).KNNSnapshot(ws, q, k)
		return st, err
	}
	rows := []struct {
		name   string
		n      int
		build  func() (Index, error)
		search func(Index, *Workspace, dist.Query) (SearchStats, error)
		want   float64
	}{
		{"Flat", 128, func() (Index, error) { return flat(0) }, knnWith, 0},
		{"Concurrent", 128, concurrent, knnWith, 0},
		{"ConcurrentSnapshot", 128, concurrent, knnSnapshot, 0},
		{"Sharded1", 128, func() (Index, error) { return NewSharded(1, flat) }, knnWith, 0},
		{"Sharded4", 128, func() (Index, error) { return NewSharded(4, flat) }, knnWith, 0},
		// 1024 points: refinements abandon on the rows' chunk envelopes.
		{"Flat/n1024", 1024, func() (Index, error) { return flat(0) }, knnWith, 0},
		{"Sharded4/n1024", 1024, func() (Index, error) { return NewSharded(4, flat) }, knnWith, 0},
		{"DBCH", 128, func() (Index, error) { return NewDBCH("SAPLA", 2, 5) }, knnWith, 0},
		{"Sharded4DBCH", 128, func() (Index, error) { return NewSharded(4, safeDBCH) }, knnWith, 0},
		{"RTree", 128, func() (Index, error) { return NewRTree("SAPLA", 128, m, 2, 5) }, knnWith, 0},
		{"LinearScan", 128, func() (Index, error) { return NewLinearScan(), nil }, knnWith, 0},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			idx, err := row.build()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range benchEntries(t, 2*flatRows+30, row.n, m) {
				if err := idx.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			q := testQueries(t, 1, row.n, m)[0]
			ws := NewWorkspace()
			var st SearchStats
			// AllocsPerRun's own warm-up run sizes the workspace.
			allocs := testing.AllocsPerRun(50, func() {
				if st, err = row.search(idx, ws, q); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != row.want {
				t.Fatalf("steady-state search allocates %v times, want %v", allocs, row.want)
			}
			if st.Filtered > 0 && st.Measured >= st.Filtered {
				t.Fatalf("the filter pruned nothing (%+v): the row did not take its path", st)
			}
		})
	}
}

// safeDBCH builds a shard of the index bench/loadgen's per-layer trace
// searches: a DBCH-tree with SafeBound.
func safeDBCH(int) (Index, error) {
	tree, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		return nil, err
	}
	tree.SafeBound = true
	return tree, nil
}

// TestRangeAllocs: a range query is a k-NN search on a pooled workspace, so
// once the pool holds a warm one its only allocation is the caller's copy of
// the answer — on the bare flat tier and behind four shards alike. The
// DBCH-tree's depth-first range borrows the same pool for its stack, query
// coefficients and answers, and allocates only that copy too; behind four
// shards, each holding such a tree, the range is the k-NN search again.
func TestRangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's")
	}
	const n, m = 128, 12
	dbch, err := NewDBCH("SAPLA", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	shardedDBCH, err := NewSharded(4, safeDBCH)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		idx  Index
	}{{"Flat", NewFlat()}, {"Sharded4", newShardedFlat(t, 4)}, {"DBCH", dbch}, {"Sharded4DBCH", shardedDBCH}} {
		t.Run(row.name, func(t *testing.T) {
			for _, e := range benchEntries(t, 2*flatRows+30, n, m) {
				if err := row.idx.Insert(e); err != nil {
					t.Fatal(err)
				}
			}
			q := testQueries(t, 1, n, m)[0]
			near, _, err := row.idx.KNN(q, 10)
			if err != nil || len(near) != 10 {
				t.Fatalf("k-NN: %d results, %v", len(near), err)
			}
			var res []Result
			// AllocsPerRun's own warm-up run sizes the pooled workspace.
			allocs := testing.AllocsPerRun(50, func() {
				if res, _, err = row.idx.Range(q, near[9].Dist); err != nil {
					t.Fatal(err)
				}
			})
			if len(res) != 10 {
				t.Fatalf("range at the 10th distance: %d results", len(res))
			}
			if allocs > 1 {
				t.Fatalf("range allocates %v times, want at most 1", allocs)
			}
		})
	}
}

// TestLinearScanKNNExact: the heap-based scan must return the true k
// smallest exact distances, in ascending order.
func TestLinearScanKNNExact(t *testing.T) {
	entries := benchEntries(t, 150, 128, 12)
	queries := testQueries(t, 5, 128, 12)
	ls := NewLinearScan()
	for _, e := range entries {
		if err := ls.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		lin, _, err := ls.KNN(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, 0, len(entries))
		for _, e := range entries {
			want = append(want, math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw)))
		}
		sort.Float64s(want)
		if len(lin) != 8 {
			t.Fatalf("linear returned %d results, want 8", len(lin))
		}
		for i := range lin {
			if lin[i].Dist != want[i] {
				t.Fatalf("result %d: dist %v, want %v", i, lin[i].Dist, want[i])
			}
		}
	}
}

// TestBatchKNNDeterministic: BatchKNN answers must be identical for any
// worker count (satellite of the parallel-query tentpole).
func TestBatchKNNDeterministic(t *testing.T) {
	entries := benchEntries(t, 200, 128, 12)
	queries := testQueries(t, 16, 128, 12)
	for name, idx := range testIndexes(t, entries, 128, 12) {
		base, baseStats, err := BatchKNN(idx, queries, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(base) != len(queries) || len(baseStats) != len(queries) {
			t.Fatalf("%s: output length mismatch", name)
		}
		for _, workers := range []int{2, 4, 7} {
			got, gotStats, err := BatchKNN(idx, queries, 8, workers)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range queries {
				if gotStats[qi] != baseStats[qi] {
					t.Fatalf("%s workers=%d q%d: stats diverge", name, workers, qi)
				}
				if len(got[qi]) != len(base[qi]) {
					t.Fatalf("%s workers=%d q%d: result count diverges", name, workers, qi)
				}
				for i := range got[qi] {
					if got[qi][i] != base[qi][i] {
						t.Fatalf("%s workers=%d q%d result %d diverges", name, workers, qi, i)
					}
				}
			}
		}
	}
}

// TestBatchKNNMatchesSerialKNN: each batch slot must equal the plain
// one-query API's answer.
func TestBatchKNNMatchesSerialKNN(t *testing.T) {
	entries := benchEntries(t, 200, 128, 12)
	queries := testQueries(t, 8, 128, 12)
	idxs := testIndexes(t, entries, 128, 12)
	for name, idx := range idxs {
		batch, _, err := BatchKNN(idx, queries, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want, _, err := idx.KNN(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch[qi]) != len(want) {
				t.Fatalf("%s q%d: batch %d results, serial %d", name, qi, len(batch[qi]), len(want))
			}
			for i := range want {
				if batch[qi][i] != want[i] {
					t.Fatalf("%s q%d result %d: batch %+v, serial %+v", name, qi, i, batch[qi][i], want[i])
				}
			}
		}
	}
}

// TestBatchKNNContextCanceled: a canceled context must surface a partial-
// results error wrapping both ErrBatchCanceled and the context's cause,
// while every answered slot stays byte-identical to the serial API.
func TestBatchKNNContextCanceled(t *testing.T) {
	entries := benchEntries(t, 100, 64, 12)
	queries := testQueries(t, 12, 64, 12)
	idx := NewLinearScan()
	for _, e := range entries {
		if err := idx.Insert(e); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-canceled: workers bail before claiming anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, stats, err := BatchKNNContext(ctx, idx, queries, 8, 4)
	if !errors.Is(err, ErrBatchCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled batch: err = %v", err)
	}
	if len(out) != len(queries) || len(stats) != len(queries) {
		t.Fatal("canceled batch must still return full-length output slices")
	}
	for qi, res := range out {
		if res == nil {
			continue // unanswered slot
		}
		want, _, err := idx.KNN(queries[qi], 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("q%d result %d diverges from serial answer", qi, i)
			}
		}
	}

	// Cancelled mid-batch over four flat shards: cancellation is per query, so
	// a slot is either a whole answer — k results, every shard's rows
	// filtered — or nil, never the merge of some shards.
	sharded := newShardedFlat(t, 4)
	if err := sharded.InsertBatch(benchEntries(t, 100, 64, 12)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		mctx, mcancel := context.WithCancel(context.Background())
		p := &stackProbe{scan: sharded, cancelAt: 3, cancel: mcancel}
		out, stats, err := BatchKNNContext(mctx, p, queries, 8, workers)
		mcancel()
		if !errors.Is(err, ErrBatchCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d canceled after three: err = %v", workers, err)
		}
		answered := 0
		for qi, res := range out {
			if res == nil {
				if stats[qi] != (SearchStats{}) {
					t.Fatalf("workers=%d q%d: unanswered, stats %+v", workers, qi, stats[qi])
				}
				continue
			}
			answered++
			want, _, err := sharded.KNN(queries[qi], 8)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, "answered before the cancel", res, want)
			if len(res) != 8 || stats[qi].Filtered != sharded.Len() {
				t.Fatalf("workers=%d q%d: %d results, filtered %d of %d", workers, qi, len(res), stats[qi].Filtered, sharded.Len())
			}
		}
		// Each worker may finish the query it had claimed when the third returned.
		if answered < 3 || answered > 2+workers || len(p.onCaller) != answered {
			t.Fatalf("workers=%d: %d answered, %d searches ran", workers, answered, len(p.onCaller))
		}
		if want := fmt.Sprintf("after %d of %d queries", answered, len(queries)); !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
	}

	// Expired deadline reports the deadline cause.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := BatchKNNContext(dctx, idx, queries, 8, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v", err)
	}

	// A live context behaves exactly like BatchKNN.
	got, _, err := BatchKNNContext(context.Background(), idx, queries, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := BatchKNN(idx, queries, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		for i := range base[qi] {
			if got[qi][i] != base[qi][i] {
				t.Fatalf("q%d result %d diverges between ctx and plain batch", qi, i)
			}
		}
	}
}

// stackProbe is an Index that records, per KNN call, whether the calling
// goroutine's stack passes through the named function, and cancels a context
// after a set number of calls. KNNWith, collect and Range go to the scan
// unrecorded: BatchKNN calls KNN.
type stackProbe struct {
	scan     Index
	through  string
	cancelAt int
	cancel   context.CancelFunc

	mu       sync.Mutex
	onCaller []bool
}

func (p *stackProbe) Insert(e *Entry) error { return p.scan.Insert(e) }
func (p *stackProbe) Len() int              { return p.scan.Len() }
func (p *stackProbe) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	buf := make([]byte, 8192)
	stack := string(buf[:runtime.Stack(buf, false)])
	p.mu.Lock()
	p.onCaller = append(p.onCaller, strings.Contains(stack, p.through))
	if len(p.onCaller) == p.cancelAt {
		p.cancel()
	}
	p.mu.Unlock()
	return p.scan.KNN(q, k)
}
func (p *stackProbe) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	return p.scan.KNNWith(ws, q, k)
}
func (p *stackProbe) collect(ws *Workspace, q dist.Query, k int) (SearchStats, error) {
	return p.scan.collect(ws, q, k)
}
func (p *stackProbe) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	return p.scan.Range(q, radius)
}

// TestBatchKNNSerialOnCaller: with one worker — asked for, or all a single
// query can use — the claim loop runs on the caller's goroutine, answers what
// two workers answer (the caller and one more goroutine, in any split), and
// still stops at the first cancellation check.
func TestBatchKNNSerialOnCaller(t *testing.T) {
	queries := testQueries(t, 5, 64, 12)
	probe := func(cancelAt int) (*stackProbe, context.Context) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		p := &stackProbe{scan: NewLinearScan(), through: "TestBatchKNNSerialOnCaller", cancelAt: cancelAt, cancel: cancel}
		for _, e := range benchEntries(t, 60, 64, 12) {
			if err := p.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		return p, ctx
	}
	for name, c := range map[string]struct {
		queries  []dist.Query
		workers  int
		onCaller bool
	}{
		"one worker":            {queries, 1, true},
		"one query, four asked": {queries[:1], 4, true},
		"two workers":           {queries, 2, false},
	} {
		p, ctx := probe(0)
		got, _, err := BatchKNNContext(ctx, p, c.queries, 8, c.workers)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.onCaller) != len(c.queries) {
			t.Fatalf("%s: %d searches for %d queries", name, len(p.onCaller), len(c.queries))
		}
		for i, on := range p.onCaller {
			if c.onCaller && !on {
				t.Fatalf("%s: search %d left the caller's goroutine", name, i)
			}
		}
		for qi, q := range c.queries {
			want, _, _ := p.scan.KNN(q, 8)
			identicalResults(t, name, got[qi], want)
		}
	}

	p, ctx := probe(2)
	out, _, err := BatchKNNContext(ctx, p, queries, 8, 1)
	if !errors.Is(err, ErrBatchCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled after two: err = %v", err)
	}
	if len(p.onCaller) != 2 || out[0] == nil || out[1] == nil || out[2] != nil {
		t.Fatalf("canceled after two: %d searches ran, answered %v %v %v",
			len(p.onCaller), out[0] != nil, out[1] != nil, out[2] != nil)
	}
}

// TestBatchKNNEdgeCases covers empty query sets and k=0.
func TestBatchKNNEdgeCases(t *testing.T) {
	entries := benchEntries(t, 50, 64, 12)
	idx := NewLinearScan()
	for _, e := range entries {
		if err := idx.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	out, stats, err := BatchKNN(idx, nil, 8, 4)
	if err != nil || len(out) != 0 || len(stats) != 0 {
		t.Fatalf("empty batch: out=%d stats=%d err=%v", len(out), len(stats), err)
	}
	queries := testQueries(t, 3, 64, 12)
	out, _, err = BatchKNN(idx, queries, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range out {
		if len(out[qi]) != 0 {
			t.Fatalf("k=0 query %d returned %d results", qi, len(out[qi]))
		}
	}
}
