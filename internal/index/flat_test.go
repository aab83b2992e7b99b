package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/reduce"
	"sapla/internal/ts"
)

// flatLike is what the model-based test drives: a bare Flat and a
// ShardedIndex of Flat shards both satisfy it.
type flatLike interface {
	Index
	RangeSearcher
	BatchInserter
	Deleter
}

func newShardedFlat(t testing.TB, shards int) *ShardedIndex {
	t.Helper()
	s, err := NewSharded(shards, func(int) (Index, error) { return NewFlat(), nil })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flatModel is the trivially-correct side of the differential test: a map of
// the live entries, scanned linearly for every answer.
type flatModel struct {
	t    *testing.T
	meth reduce.Method
	rng  *rand.Rand
	n, m int
	live map[int]*Entry
	ids  []int // insertion-ordered candidates for deletion; may hold dead IDs
	next int

	knns               int // k-NN queries checked against the scan
	filtered, measured int // their rows filtered and refined
}

func (m *flatModel) entry(id int) *Entry {
	raw := mixedSeries(m.rng, m.rng.Intn(3), m.n)
	rep, err := m.meth.Reduce(raw, m.m)
	if err != nil {
		m.t.Fatal(err)
	}
	return NewEntry(id, raw, rep)
}

func (m *flatModel) query() dist.Query {
	raw := mixedSeries(m.rng, m.rng.Intn(3), m.n)
	if len(m.live) > 0 && m.rng.Intn(2) == 0 { // perturb a stored series: a near neighbour exists
		for _, e := range m.live {
			raw = e.Raw.Clone()
			break
		}
		for i := range raw {
			raw[i] += 0.2 * m.rng.NormFloat64()
		}
		raw = raw.ZNormalize()
	}
	rep, err := m.meth.Reduce(raw, m.m)
	if err != nil {
		m.t.Fatal(err)
	}
	return dist.NewQuery(raw, rep)
}

func (m *flatModel) scan() *LinearScan {
	s := NewLinearScan()
	for _, e := range m.live {
		s.entries = append(s.entries, e)
	}
	return s
}

// valid requires every element to be a live entry carrying its exact
// distance, in strictly ascending canonical (distance, ID) order — which also
// rules out duplicates.
func (m *flatModel) valid(label string, q dist.Query, got []Result) {
	m.t.Helper()
	for i, r := range got {
		if m.live[r.Entry.ID] != r.Entry {
			m.t.Fatalf("%s: result %d (id %d) is not a live entry", label, i, r.Entry.ID)
		}
		want := math.Sqrt(ts.EuclideanSq(q.Raw, r.Entry.Raw))
		if math.Float64bits(r.Dist) != math.Float64bits(want) {
			m.t.Fatalf("%s: result %d dist %v, exact %v", label, i, r.Dist, want)
		}
		if i > 0 {
			p := got[i-1]
			if p.Dist > r.Dist || (p.Dist == r.Dist && p.Entry.ID >= r.Entry.ID) {
				m.t.Fatalf("%s: results %d,%d out of canonical order: (%v,%d) (%v,%d)",
					label, i-1, i, p.Dist, p.Entry.ID, r.Dist, r.Entry.ID)
			}
		}
	}
}

func (m *flatModel) checkKNN(idx flatLike, step int) {
	m.t.Helper()
	q := m.query()
	k := []int{1, 5, 10, len(m.live) + 3}[m.rng.Intn(4)]
	label := fmt.Sprintf("step %d knn k=%d live=%d", step, k, len(m.live))
	got, stats, err := idx.KNN(q, k)
	if err != nil {
		m.t.Fatalf("%s: %v", label, err)
	}
	want, _, _ := m.scan().KNN(q, k)
	if len(got) != min(k, len(m.live)) {
		m.t.Fatalf("%s: %d results", label, len(got))
	}
	if stats.Filtered != len(m.live) || stats.NodesVisited != 0 || stats.Measured < len(got) {
		m.t.Fatalf("%s: stats %+v", label, stats)
	}
	m.valid(label, q, got)
	identicalResults(m.t, label, got, want)
	m.knns++
	m.filtered, m.measured = m.filtered+stats.Filtered, m.measured+stats.Measured
}

func (m *flatModel) checkRange(idx flatLike, step int) {
	m.t.Helper()
	q := m.query()
	scan := m.scan()
	near, _, _ := scan.KNN(q, 6)
	radius := 1.0
	if len(near) > 0 {
		radius = near[len(near)-1].Dist // exactly on an entry: the boundary is inclusive
	}
	label := fmt.Sprintf("step %d range r=%v live=%d", step, radius, len(m.live))
	got, _, err := idx.Range(q, radius)
	if err != nil {
		m.t.Fatalf("%s: %v", label, err)
	}
	m.valid(label, q, got)
	want, _, _ := scan.Range(q, radius)
	identicalResults(m.t, label, got, want)
}

func (m *flatModel) insert(idx flatLike, e *Entry) {
	m.t.Helper()
	if err := idx.Insert(e); err != nil {
		m.t.Fatal(err)
	}
	m.live[e.ID] = e
	m.ids = append(m.ids, e.ID)
}

// run plays ops random operations and checks every answer on the way.
func (m *flatModel) run(idx flatLike, ops int) {
	m.t.Helper()
	for step := 0; step < ops; step++ {
		switch p := m.rng.Intn(100); {
		case p < 30:
			m.next++
			m.insert(idx, m.entry(m.next))
		case p < 35 && len(m.ids) > 0: // bring a dead ID back, or hit the duplicate check
			id := m.ids[m.rng.Intn(len(m.ids))]
			if _, alive := m.live[id]; alive {
				if err := idx.Insert(m.entry(id)); err == nil {
					m.t.Fatalf("step %d: duplicate id %d accepted", step, id)
				}
			} else {
				m.insert(idx, m.entry(id))
			}
		case p < 45:
			batch := make([]*Entry, 1+m.rng.Intn(20))
			for i := range batch {
				m.next++
				batch[i] = m.entry(m.next)
			}
			if err := idx.InsertBatch(batch); err != nil {
				m.t.Fatal(err)
			}
			for _, e := range batch {
				m.live[e.ID] = e
				m.ids = append(m.ids, e.ID)
			}
		case p < 70 && len(m.ids) > 0:
			id := m.ids[len(m.ids)-1] // the newest: on a bare Flat, the last slot
			if m.rng.Intn(3) > 0 {
				id = m.ids[m.rng.Intn(len(m.ids))]
			}
			_, alive := m.live[id]
			if got := idx.Delete(id); got != alive {
				m.t.Fatalf("step %d: Delete(%d) = %v, live = %v", step, id, got, alive)
			}
			delete(m.live, id)
		case p < 90:
			m.checkKNN(idx, step)
		default:
			m.checkRange(idx, step)
		}
		if idx.Len() != len(m.live) {
			m.t.Fatalf("step %d: Len = %d, model holds %d", step, idx.Len(), len(m.live))
		}
	}
}

func newFlatModel(t *testing.T, method string, seed int64) *flatModel {
	return &flatModel{
		t: t, meth: buildMethod(t, method), rng: rand.New(rand.NewSource(seed)),
		n: 128, m: 12, live: make(map[int]*Entry),
	}
}

// flatTargets is the matrix every model run covers: the bare tier, and the
// tier behind the scatter-gather at one, an even and a prime shard count.
func flatTargets(t *testing.T) map[string]func() flatLike {
	return map[string]func() flatLike{
		"flat":     func() flatLike { return NewFlat() },
		"sharded1": func() flatLike { return newShardedFlat(t, 1) },
		"sharded4": func() flatLike { return newShardedFlat(t, 4) },
		"sharded7": func() flatLike { return newShardedFlat(t, 7) },
	}
}

// TestFlatModelLowerBound: the filter is a lower bound of the computed
// distance, so every k-NN and range answer of every model run is the linear
// scan's — IDs, order and distance bits — whatever the order entries arrived
// in and however many shards hold them, and the filter still prunes.
func TestFlatModelLowerBound(t *testing.T) {
	for name, build := range flatTargets(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				m := newFlatModel(t, "SAPLA", seed)
				m.run(build(), 400)
				if m.knns == 0 || m.measured >= m.filtered {
					t.Fatalf("%d k-NN queries refined %d of %d filtered rows: the check ran on nothing", m.knns, m.measured, m.filtered)
				}
			})
		}
	}
}

// TestFlatModelSAPLA: a longer run of the model on SAPLA entries, whose
// representations the tier ignores: every answer is the scan's (recall 1).
func TestFlatModelSAPLA(t *testing.T) {
	for name, build := range flatTargets(t) {
		t.Run(name, func(t *testing.T) {
			m := newFlatModel(t, "SAPLA", 11)
			m.run(build(), 900)
			if m.knns == 0 {
				t.Fatal("no k-NN query ran")
			}
			t.Logf("%d k-NN queries refined %d of %d rows, %d live at the end", m.knns, m.measured, m.filtered, len(m.live))
		})
	}
}

// TestFlatHandOffSAPLA: the bound handed from shard to shard dismisses
// nothing a scan would return, and no query measures more than its shards
// would on their own.
func TestFlatHandOffSAPLA(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		m := newFlatModel(t, "SAPLA", 71)
		idx := newShardedFlat(t, shards)
		for i := 0; i < 400; i++ {
			m.next++
			m.insert(idx, m.entry(m.next))
		}
		ws := NewWorkspace()
		var measured, independent int
		for qi := 0; qi < 20; qi++ {
			q := m.query()
			label := testLabel("hand-off", qi, shards, 0)
			res, got, ind := handOffKNN(t, label, idx, ws, q, 10)
			want, _, _ := m.scan().KNN(q, 10)
			m.valid(label, q, res)
			identicalResults(t, label, res, want)
			measured, independent = measured+got, independent+ind
		}
		if measured >= independent {
			t.Fatalf("shards=%d: measured %d, the shards on their own %d: the bound saved nothing", shards, measured, independent)
		}
	}
}

// TestFlatHandOffLeavesWorkspaceClean: a scatter-gather search that fails on
// a later shard — after earlier ones have earned a finite bound — must not
// leave that bound in the workspace: the next search on it, of any index,
// returns what a fresh workspace returns and measures as much.
func TestFlatHandOffLeavesWorkspaceClean(t *testing.T) {
	const shards, k = 4, 5
	idx := newShardedFlat(t, shards)
	m := newFlatModel(t, "SAPLA", 73)
	short := *m
	short.n = 64
	// Shard 2 holds only 64-point series: the 128-point query is a length
	// error there, after shards 0 and 1 have earned a bound.
	for id := 1; id <= 200; id++ {
		if ShardOf(id, shards) == 2 {
			if err := idx.Insert(short.entry(id)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		m.insert(idx, m.entry(id))
	}
	q := m.query()
	ws := NewWorkspace()
	if res, _, err := idx.KNNWith(ws, q, k); !errors.Is(err, ErrQueryLength) || res != nil {
		t.Fatalf("search over a shard with a 64-point series: %v %v", res, err)
	}
	last := idx.Shard(3)
	got, gotStats, err := last.KNNWith(ws, q, k)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := last.KNNWith(NewWorkspace(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != k {
		t.Fatalf("shard 3 on a fresh workspace: %d results", len(want))
	}
	identicalResults(t, "after the failed search", got, want)
	if gotStats != wantStats {
		t.Fatalf("after the failed search: stats %+v, on a fresh workspace %+v", gotStats, wantStats)
	}
}

// TestFlatConcurrentReaders races queries against inserts and deletes on a
// sharded flat tier (the lock arm of ConcurrentIndex): whatever state a
// reader lands on, its answer is internally consistent.
func TestFlatConcurrentReaders(t *testing.T) {
	idx := newShardedFlat(t, 4)
	m := newFlatModel(t, "SAPLA", 5)
	for i := 0; i < 300; i++ {
		m.next++
		m.insert(idx, m.entry(m.next))
	}
	queries := make([]dist.Query, 8)
	for i := range queries {
		queries[i] = m.query()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ws := NewWorkspace()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(r+i)%len(queries)]
				res, _, err := idx.KNNWith(ws, q, 10)
				if err == nil && i%4 == 0 {
					res, _, err = idx.Range(q, 9)
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for j, x := range res {
					want := math.Sqrt(ts.EuclideanSq(q.Raw, x.Entry.Raw))
					if math.Float64bits(x.Dist) != math.Float64bits(want) ||
						(j > 0 && res[j-1].Dist > x.Dist) {
						t.Errorf("reader %d: result %d of %d inconsistent", r, j, len(res))
						return
					}
				}
			}
		}(r)
	}
	for step := 0; step < 600; step++ {
		if step%2 == 0 {
			m.next++
			m.insert(idx, m.entry(m.next))
		} else {
			id := m.ids[m.rng.Intn(len(m.ids))]
			if idx.Delete(id) {
				delete(m.live, id)
			}
		}
	}
	close(stop)
	wg.Wait()
	if idx.Len() != len(m.live) {
		t.Fatalf("Len = %d, model holds %d", idx.Len(), len(m.live))
	}
}

// TestFlatEdgeCases pins the corners: nothing stored, k out of range, k at
// and past the live count, deleting the last slot, and an ID coming back.
func TestFlatEdgeCases(t *testing.T) {
	f := NewFlat()
	m := newFlatModel(t, "SAPLA", 21)
	q := m.query()
	ws := NewWorkspace()

	if res, st, err := f.KNNWith(ws, q, 3); err != nil || res != nil || st != (SearchStats{}) {
		t.Fatalf("empty k-NN: %v %+v %v", res, st, err)
	}
	if res, _, err := f.Range(q, 5); err != nil || res != nil {
		t.Fatalf("empty range: %v %v", res, err)
	}
	if f.Delete(1) {
		t.Fatal("deleted from an empty tier")
	}

	for id := 1; id <= 5; id++ {
		m.insert(f, m.entry(id))
	}
	for _, k := range []int{0, -2} {
		if res, st, err := f.KNNWith(ws, q, k); err != nil || res != nil || st.Measured != 0 {
			t.Fatalf("k=%d: %v %+v %v", k, res, st, err)
		}
	}
	if res, _, err := f.Range(q, -1); err != nil || res != nil {
		t.Fatalf("negative radius: %v %v", res, err)
	}
	// k at and past the live count: the running bound never leaves +Inf, and
	// the seeds — here every entry — must not be measured a second time.
	for _, k := range []int{5, 6, 50} {
		res, st, err := f.KNNWith(ws, q, k)
		if err != nil || len(res) != 5 || st.Measured != 5 {
			t.Fatalf("k=%d over 5 entries: %d results, stats %+v, err %v", k, len(res), st, err)
		}
		m.valid(fmt.Sprintf("k=%d", k), q, res)
	}

	// Delete the last slot, then the first (the last moves into its place).
	if !f.Delete(5) || !f.Delete(1) || f.Len() != 3 {
		t.Fatalf("deletes failed, Len = %d", f.Len())
	}
	delete(m.live, 5)
	delete(m.live, 1)
	// Lookup and Each see exactly the live entries, the moved one included.
	if _, ok := f.Lookup(1); ok {
		t.Fatal("Lookup found a deleted id")
	}
	seen := map[int]bool{}
	f.Each(func(e *Entry) {
		if got, ok := f.Lookup(e.ID); !ok || got != e || e != m.live[e.ID] {
			t.Fatalf("Each visited id %d, which Lookup does not resolve to its live entry", e.ID)
		}
		seen[e.ID] = true
	})
	if len(seen) != len(m.live) {
		t.Fatalf("Each visited %d entries, %d live", len(seen), len(m.live))
	}
	res, _, err := f.KNNWith(ws, q, 10)
	if err != nil || len(res) != 3 {
		t.Fatalf("after deletes: %d results, err %v", len(res), err)
	}
	m.valid("after deletes", q, res)

	// The same ID again, under different values: the old series is gone.
	again := m.entry(1)
	m.insert(f, again)
	self := dist.NewQuery(again.Raw, again.Rep)
	res, _, err = f.KNNWith(ws, self, 1)
	if err != nil || len(res) != 1 || res[0].Entry != again || res[0].Dist != 0 {
		t.Fatalf("re-inserted id 1 is not its own nearest neighbour: %+v %v", res, err)
	}

	// Drain it: every slot goes, the tier stays usable.
	for id := range m.live {
		if !f.Delete(id) {
			t.Fatalf("Delete(%d) failed", id)
		}
		delete(m.live, id)
	}
	if res, _, err := f.KNNWith(ws, q, 3); err != nil || res != nil || f.Len() != 0 {
		t.Fatalf("drained: %v %v Len %d", res, err, f.Len())
	}
	m.insert(f, m.entry(9))
	if res, _, err := f.KNNWith(ws, q, 3); err != nil || len(res) != 1 {
		t.Fatalf("after refill: %v %v", res, err)
	}
}

// TestFlatInsertBatchAtomic: a batch with a duplicate ID applies nothing.
func TestFlatInsertBatchAtomic(t *testing.T) {
	f := NewFlat()
	m := newFlatModel(t, "SAPLA", 31)
	m.insert(f, m.entry(1))
	for name, batch := range map[string][]*Entry{
		"duplicate of a stored id": {m.entry(2), m.entry(1), m.entry(3)},
		"duplicate inside":         {m.entry(2), m.entry(3), m.entry(2)},
	} {
		if err := f.InsertBatch(batch); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if f.Len() != 1 || f.Delete(2) || f.Delete(3) {
			t.Fatalf("%s: the rejected batch left entries behind", name)
		}
	}
	q := dist.NewQuery(m.live[1].Raw, m.live[1].Rep)
	if res, _, err := f.KNN(q, 5); err != nil || len(res) != 1 || res[0].Entry != m.live[1] {
		t.Fatalf("stored entry damaged by the rejected batches: %+v %v", res, err)
	}
}

// TestFlatBlocksGrowAndShrink crosses block boundaries both ways: every
// stored series stays its own nearest neighbour, so every row moved with its
// entry, and spare blocks are handed back.
func TestFlatBlocksGrowAndShrink(t *testing.T) {
	f := NewFlat()
	m := newFlatModel(t, "SAPLA", 41)
	const total = 3*flatRows + 7
	for id := 0; id < total; id++ {
		m.insert(f, m.entry(id))
	}
	if len(f.blocks) != 4 {
		t.Fatalf("%d blocks for %d rows", len(f.blocks), total)
	}
	selfNearest := func(label string) {
		t.Helper()
		for id, e := range m.live {
			res, st, err := f.KNN(dist.NewQuery(e.Raw, e.Rep), 1)
			if err != nil || len(res) != 1 || res[0].Entry != e || res[0].Dist != 0 {
				t.Fatalf("%s: id %d is not its own nearest neighbour: %+v %v", label, id, res, err)
			}
			if st.Filtered != len(m.live) {
				t.Fatalf("%s: filtered %d of %d", label, st.Filtered, len(m.live))
			}
		}
	}
	selfNearest("full")
	// Delete from the front: every hole is filled from the last block.
	for id := 0; id < total-flatRows/2; id++ {
		if !f.Delete(id) {
			t.Fatalf("Delete(%d) failed", id)
		}
		delete(m.live, id)
	}
	if len(f.blocks) > 2 {
		t.Fatalf("%d blocks kept for %d rows", len(f.blocks), f.Len())
	}
	selfNearest("shrunk")
}

// TestFlatInsertRefuses: an entry the rows cannot hold — one of another
// series length, or with no values — is refused by Insert and, in the middle
// of a batch, by InsertBatch, and the tier is as it was: Len, Lookup, every
// envelope row. A refused batch into a fresh tier fixes no length. The rows
// read the raw values only, so an entry with no representation, or one that
// is not piecewise linear, is held and answered like any other.
func TestFlatInsertRefuses(t *testing.T) {
	m := newFlatModel(t, "SAPLA", 51)
	m.n = 1024
	f := NewFlat()
	for id := 1; id <= 20; id++ {
		m.insert(f, m.entry(id)) // all in the first block
	}
	state := func() []any {
		b, rows := f.blocks[0], f.Len()
		return []any{len(f.blocks), f.n, f.abandon, slices.Clone(f.ents),
			slices.Clone(b.env[:rows*ts.EnvelopeWidth]), slices.Clone(b.slack[:rows])}
	}
	short := *m
	short.n = 512
	other := m.entry(0)
	for _, tc := range []struct {
		name string
		e    *Entry
	}{
		{"another length", short.entry(100)},
		{"raw of another length", NewEntry(100, other.Raw[:512], other.Rep)},
		{"no values", NewEntry(100, nil, nil)},
	} {
		before := state()
		for how, err := range map[string]error{
			"Insert":      f.Insert(tc.e),
			"InsertBatch": f.InsertBatch([]*Entry{m.entry(200), tc.e, m.entry(201)}),
		} {
			if !errors.Is(err, ts.ErrLengthMismatch) {
				t.Fatalf("%s, %s: err %v, want a length mismatch", tc.name, how, err)
			}
		}
		if _, ok := f.Lookup(200); ok || !reflect.DeepEqual(state(), before) {
			t.Fatalf("%s: the tier changed", tc.name)
		}
		for id, e := range m.live {
			if got, ok := f.Lookup(id); !ok || got != e {
				t.Fatalf("%s: id %d lost", tc.name, id)
			}
		}
	}

	g := NewFlat()
	for name, batch := range map[string][]*Entry{
		"mixed-length batch": {short.entry(1), m.entry(2)},
		"empty series":       {NewEntry(1, ts.Series{}, nil)},
	} {
		if err := g.InsertBatch(batch); !errors.Is(err, ts.ErrLengthMismatch) {
			t.Fatalf("%s into a fresh tier: %v", name, err)
		}
		if g.Len() != 0 || g.n != 0 || g.abandon || len(g.blocks) != 0 {
			t.Fatalf("refused %s left Len %d, n %d, %d blocks", name, g.Len(), g.n, len(g.blocks))
		}
	}
	if err := g.Insert(m.entry(3)); err != nil || g.n != m.n || !g.abandon {
		t.Fatalf("after the refused batches: %v, n %d", err, g.n)
	}

	paa := *m
	paa.meth = buildMethod(t, "PAA")
	m.insert(f, NewEntry(300, other.Raw, nil))
	m.insert(f, paa.entry(301))
	for i := 0; i < 4; i++ {
		m.checkKNN(f, i)
	}
}

// TestFlatNeverRefusesSAPLA: the rows hold every SAPLA entry, whatever the
// first entry looks like, through Insert, InsertBatch and a delete/re-insert,
// so the served tier never refuses what the server reduced.
func TestFlatNeverRefusesSAPLA(t *testing.T) {
	meth := core.New()
	for _, n := range []int{8, 16, 256, 1024} {
		for _, m := range []int{6, 12, 24} {
			if n < 2*(m/3) {
				continue // SAPLA refuses a budget of more segments than n/2
			}
			for _, first := range []string{"mixed", "constant", "line"} {
				rng := rand.New(rand.NewSource(int64(n*100 + m)))
				raws := make([]ts.Series, 24)
				for i := range raws {
					raws[i] = mixedSeries(rng, i, n)
				}
				for i := range raws[0] {
					switch first {
					case "constant":
						raws[0][i] = 1
					case "line":
						raws[0][i] = float64(i)
					}
				}
				entries := func() []*Entry {
					out := make([]*Entry, len(raws))
					for id, raw := range raws {
						rep, err := meth.Reduce(raw, m)
						if err != nil {
							t.Fatal(err)
						}
						out[id] = NewEntry(id, raw, rep)
					}
					return out
				}
				check := func(how string, f *Flat, err error) {
					t.Helper()
					if err != nil || f.Len() != len(raws) {
						t.Fatalf("n=%d M=%d first %s, %s: %v, Len %d", n, m, first, how, err, f.Len())
					}
					for id := range raws {
						e, _ := f.Lookup(id)
						res, _, err := f.KNN(dist.NewQuery(e.Raw, e.Rep), 1)
						if err != nil || res[0].Entry != e || res[0].Dist != 0 {
							t.Fatalf("n=%d M=%d first %s, %s: id %d not its own nearest: %+v %v", n, m, first, how, id, res, err)
						}
					}
				}

				one := NewFlat()
				var err error
				for _, e := range entries() {
					err = errors.Join(err, one.Insert(e))
				}
				check("Insert", one, err)
				batch := NewFlat()
				check("InsertBatch", batch, batch.InsertBatch(entries()))
				// Every third entry, the length-fixing first one included, goes
				// out and back in.
				for id := 0; id < len(raws); id += 3 {
					e, _ := one.Lookup(id)
					one.Delete(id)
					err = errors.Join(err, one.Insert(e))
				}
				check("delete/re-insert", one, err)
			}
		}
	}
}

// TestFlatQueryErrors: a query of another length than the stored series is
// ErrQueryLength — an error, not a panic — whatever its representation says,
// and the workspace survives it. The representation is not read: a query
// reduced under a method with no flat form is answered as the scan answers.
func TestFlatQueryErrors(t *testing.T) {
	f := NewFlat()
	m := newFlatModel(t, "SAPLA", 61)
	for id := 1; id <= 10; id++ {
		m.insert(f, m.entry(id))
	}
	ws := NewWorkspace()

	// A shorter query.
	short := *m
	short.n, short.live = 64, nil // nothing stored to perturb: a fresh 64-point draw
	sq := short.query()
	if _, _, err := f.KNNWith(ws, sq, 3); !errors.Is(err, ErrQueryLength) {
		t.Fatalf("k-NN with a shorter query: %v", err)
	}
	if _, _, err := f.Range(sq, 3); !errors.Is(err, ErrQueryLength) {
		t.Fatalf("range with a shorter query: %v", err)
	}
	// Same, where the representation has the stored length.
	lying := dist.NewQuery(sq.Raw, m.query().Rep)
	if _, _, err := f.KNNWith(ws, lying, 3); !errors.Is(err, ErrQueryLength) {
		t.Fatalf("k-NN with mismatched raw length: %v", err)
	}
	if _, _, err := f.Range(lying, math.Inf(1)); !errors.Is(err, ErrQueryLength) {
		t.Fatalf("range with mismatched raw length: %v", err)
	}
	// The workspace survives the aborted searches.
	good := m.query()
	res, _, err := f.KNNWith(ws, good, 3)
	if err != nil || len(res) != 3 {
		t.Fatalf("after the errors: %d results, %v", len(res), err)
	}
	m.valid("after errors", good, res)

	// A query reduced under PAA, and one with no representation at all.
	paa := newFlatModel(t, "PAA", 62)
	for _, q := range []dist.Query{paa.query(), {Raw: good.Raw}} {
		res, _, err := f.KNNWith(ws, q, 3)
		want, _, _ := m.scan().KNN(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, "unreduced query", res, want)
	}
}

// sweepRows runs the filter stage alone, as KNNWith's pass 1 does: q's
// envelope, then every block's rows into out (one value per slot).
func sweepRows(tb testing.TB, f *Flat, ws *Workspace, q dist.Query, out []float64) {
	tb.Helper()
	env, err := f.queryEnvelope(ws, q)
	if err != nil {
		tb.Fatal(err)
	}
	for lo := 0; lo < len(out); lo += flatRows {
		f.filterSlots(env, lo, out[lo:min(lo+flatRows, len(out))])
	}
}

// checkRowFilter fills a tier with 300 series of n points — more than one
// block — at the given scale and offset (scale 0 draws the z-normalised
// mixture), and sweeps the rows for queries near to and far from them: every
// filter value must be finite, at least 0 and at most the computed distance.
// It returns how many values it checked and how many were above 0.
func checkRowFilter(tb testing.TB, seed int64, n int, scale, offset float64) (rows, pruning int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	draw := func(family int) ts.Series {
		if scale == 0 && n >= 8 {
			return mixedSeries(rng, family, n)
		}
		raw := randWalk(rng, n)
		for i := range raw {
			raw[i] = raw[i]*scale + offset
		}
		return raw
	}
	f := NewFlat()
	for id := 0; id < flatRows+44; id++ {
		if err := f.Insert(NewEntry(id, draw(id), nil)); err != nil {
			tb.Fatal(err)
		}
	}
	ws := NewWorkspace()
	out := make([]float64, f.Len())
	for qi := 0; qi < 8; qi++ {
		raw := draw(qi)
		if qi%2 == 0 { // a stored series under noise from 0.1 % to 100 % of its spread
			raw = f.ents[rng.Intn(f.Len())].Raw.Clone()
			noise := math.Pow(10, -float64(rng.Intn(4))) * math.Max(scale, 1)
			for i := range raw {
				raw[i] += noise * rng.NormFloat64()
			}
		}
		q := dist.Query{Raw: raw}
		sweepRows(tb, f, ws, q, out)
		for s, e := range f.ents {
			exact := math.Sqrt(ts.EuclideanSq(raw, e.Raw))
			if !(out[s] >= 0 && out[s] <= exact) || math.IsInf(out[s], 0) {
				tb.Fatalf("n=%d scale=%g offset=%g query %d slot %d: filter %v, distance %v",
					n, scale, offset, qi, s, out[s], exact)
			}
			rows++
			if out[s] > 0 {
				pruning++
			}
		}
	}
	return rows, pruning
}

// TestFlatRowFilter: the row kernel is a lower bound of the computed distance
// on z-normalised and raw-scale data at lengths from one point to the served
// ones, on the first block and the partial second, and it is not a vacuous
// one: without an offset most rows get a positive bound.
func TestFlatRowFilter(t *testing.T) {
	for _, n := range []int{1, 17, 100, 256, 1024} {
		for _, scale := range []float64{0, 0.01, 1, 50} {
			for _, offset := range []float64{0, 100, 3e3, 1e4, 1e5} {
				rows, pruning := checkRowFilter(t, int64(n)+int64(offset), n, scale, offset)
				if offset == 0 && n > 1 && pruning*2 < rows {
					t.Fatalf("n=%d scale=%g: %d of %d values above 0", n, scale, pruning, rows)
				}
				if scale == 0 {
					break // the z-normalised mixture carries no offset
				}
			}
		}
	}
}

// TestFlatRowFilterGuard: where the slack dwarfs the distances (a common
// offset of 1e6 and up), where float32 chunk sums overflow (1e38) or the
// squares of float64 ones do (1e300), and where the values are subnormal, the
// bound stays sound; past the float32 range it is 0 on every row.
func TestFlatRowFilterGuard(t *testing.T) {
	for _, n := range []int{17, 256, 1024} {
		for _, c := range []struct{ scale, offset float64 }{
			{1, 1e6}, {1e20, 1e25}, {1, 1e38}, {1e38, 0}, {1e290, 1e300}, {1e-40, 0}, {1e-310, 1e-309},
		} {
			rows, pruning := checkRowFilter(t, int64(n), n, c.scale, c.offset)
			if c.offset >= 1e38 && pruning != 0 {
				t.Fatalf("n=%d offset %g: %d of %d rows bounded past the float32 range", n, c.offset, pruning, rows)
			}
		}
	}
}

// FuzzFlatRowFilter lets the fuzzer pick length, scale and offset.
func FuzzFlatRowFilter(f *testing.F) {
	f.Add(int64(1), uint8(3), 0.0, 0.0)
	f.Add(int64(2), uint8(1), 1.0, 1e6)
	f.Add(int64(3), uint8(4), 30.0, 2500.0)
	f.Add(int64(4), uint8(0), 1e-3, 0.1)
	f.Fuzz(func(t *testing.T, seed int64, length uint8, scale, offset float64) {
		scale, offset = math.Abs(scale), math.Abs(offset)
		if !(scale <= 1e296) || !(offset <= 1e300) {
			t.Skip("a random walk at this scale can leave the float64 range")
		}
		n := []int{1, 17, 100, 256, 1024}[length%5]
		checkRowFilter(t, seed, n, scale, offset)
	})
}

// TestFlatReusedSlotPadding: an entry moving into the slot a deleted one left
// — here one whose envelope overflowed to ±Inf — holds exactly its own
// envelope row and slack, and the row filter bounds it soundly, as it does
// the entry a swap-remove moved.
func TestFlatReusedSlotPadding(t *testing.T) {
	f := NewFlat()
	m := newFlatModel(t, "SAPLA", 81)
	m.insert(f, m.entry(1))
	m.insert(f, m.entry(3))
	wild := make(ts.Series, m.n)
	for i := range wild {
		wild[i] = 1e38 * float64(1-2*(i%2))
	}
	wild[0] = 3e38
	if err := f.Insert(NewEntry(2, wild, nil)); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := f.Envelope(2); !math.IsInf(float64(v[0]), 0) && !math.IsInf(float64(v[ts.EnvelopeChunks]), 0) {
		t.Fatalf("the wild row did not overflow: %v", v)
	}
	if !f.Delete(2) { // the last slot: its row stays behind in the block
		t.Fatal("Delete(2) failed")
	}
	e := m.entry(4)
	m.insert(f, e)
	if f.ents[2] != e || checkEnvelopes(t, f) != 3 {
		t.Fatal("the new entry did not take the freed slot's row")
	}
	if !f.Delete(1) || f.ents[0] != e || checkEnvelopes(t, f) != 2 { // entry 4 moves into slot 0
		t.Fatal("the swap-remove did not carry entry 4's row")
	}
	delete(m.live, 1)
	for i := 0; i < 5; i++ {
		q := m.query()
		out := make([]float64, f.Len())
		sweepRows(t, f, NewWorkspace(), q, out)
		for s, c := range f.ents {
			if exact := math.Sqrt(ts.EuclideanSq(q.Raw, c.Raw)); !(out[s] >= 0 && out[s] <= exact) {
				t.Fatalf("query %d slot %d: filter %v, distance %v", i, s, out[s], exact)
			}
		}
	}
}

// TestFlatRangeCoversKNN: k-NN and range share the row kernel, a lower
// bound, so a range query at a k-NN answer's k-th distance returns every
// element of that answer, and both are the scan's.
func TestFlatRangeCoversKNN(t *testing.T) {
	f := NewFlat()
	m := newFlatModel(t, "SAPLA", 91)
	for id := 0; id < flatRows+40; id++ {
		m.insert(f, m.entry(id))
	}
	for i := 0; i < 20; i++ {
		q := m.query()
		near, _, err := f.KNN(q, 10)
		if err != nil || len(near) != 10 {
			t.Fatalf("query %d: %d results, %v", i, len(near), err)
		}
		within, _, err := f.Range(q, near[9].Dist)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := m.scan().Range(q, near[9].Dist)
		identicalResults(t, fmt.Sprintf("query %d range", i), within, want)
		in := make(map[int]bool, len(within))
		for _, r := range within {
			in[r.Entry.ID] = true
		}
		for _, r := range near {
			if !in[r.Entry.ID] {
				t.Fatalf("query %d: k-NN answer id %d (exact %v) missing from the range at %v", i, r.Entry.ID, r.Dist, near[9].Dist)
			}
		}
	}
}

// TestFlatOverflowingEnvelope: two stored series at levels −1e38 and +1e38,
// whose 16-point chunk sums overflow a float32, and a query at 5e37. The
// nearer one, the second inserted, is the answer: a row whose envelope does
// not fit a float32 gets a filter distance of 0 and is refined, never pruned
// on an infinite bound.
func TestFlatOverflowingEnvelope(t *testing.T) {
	const n = 256
	level := func(v float64) ts.Series {
		s := make(ts.Series, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	q := dist.Query{Raw: level(5e37)}
	for name, build := range map[string]func() flatLike{
		"flat":     func() flatLike { return NewFlat() },
		"shards=1": func() flatLike { return newShardedFlat(t, 1) },
		"shards=4": func() flatLike { return newShardedFlat(t, 4) },
	} {
		t.Run(name, func(t *testing.T) {
			idx := build()
			scan := NewLinearScan()
			for id, v := range []float64{-1e38, 1e38} {
				for _, x := range []Index{idx, scan} {
					if err := x.Insert(NewEntry(id, level(v), nil)); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, _, err := idx.KNN(q, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, _, _ := scan.KNN(q, 1)
			identicalResults(t, "k=1", got, want)
			if got[0].Entry.ID != 1 {
				t.Fatalf("answered id %d at %v", got[0].Entry.ID, got[0].Dist)
			}
			within, _, err := idx.Range(q, want[0].Dist)
			if err != nil || len(within) != 1 || within[0].Entry.ID != 1 {
				t.Fatalf("range at the nearest distance: %+v %v", within, err)
			}
		})
	}
}
