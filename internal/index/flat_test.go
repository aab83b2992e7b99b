package index

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"sapla/internal/core"
	"sapla/internal/dist"
	"sapla/internal/reduce"
	"sapla/internal/repr"
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

func newFlat(t testing.TB, method string) *Flat {
	t.Helper()
	f, err := NewFlat(method)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newShardedFlat(t testing.TB, method string, shards int) *ShardedIndex {
	t.Helper()
	s, err := NewSharded(shards, func(int) (Index, error) { return NewFlat(method) })
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

	// lowerBound makes every answer bit-identical to the scan — after the
	// model has itself checked, pair by pair, that the filter never exceeds
	// the exact distance. Without it answers are only required to be valid,
	// and recall is accumulated.
	lowerBound  bool
	filter      dist.FilterFunc
	hits, truth int
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

// checkLowerBound is the premise of the bit-identity claim, verified on the
// very pairs the query will meet.
func (m *flatModel) checkLowerBound(q dist.Query) {
	m.t.Helper()
	for _, e := range m.live {
		fd, err := m.filter(q, e.Rep)
		if err != nil {
			m.t.Fatal(err)
		}
		if exact := math.Sqrt(ts.EuclideanSq(q.Raw, e.Raw)); fd > exact {
			m.t.Fatalf("filter %v exceeds exact distance %v for id %d: not a lower bound", fd, exact, e.ID)
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
	if m.lowerBound {
		m.checkLowerBound(q)
		identicalResults(m.t, label, got, want)
		return
	}
	if k >= len(m.live) {
		return // everything is returned: no dismissal to count
	}
	in := make(map[int]bool, len(want))
	for _, r := range want {
		in[r.Entry.ID] = true
	}
	for _, r := range got {
		if in[r.Entry.ID] {
			m.hits++
		}
	}
	m.truth += len(want)
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
	if m.lowerBound {
		m.checkLowerBound(q)
		identicalResults(m.t, label, got, want)
		return
	}
	if len(got) > len(want) {
		m.t.Fatalf("%s: %d results, only %d within the radius", label, len(got), len(want))
	}
	for _, r := range got {
		if r.Dist > radius {
			m.t.Fatalf("%s: id %d at %v lies beyond the radius", label, r.Entry.ID, r.Dist)
		}
	}
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
	f, err := dist.Filter(method)
	if err != nil {
		t.Fatal(err)
	}
	return &flatModel{
		t: t, meth: buildMethod(t, method), rng: rand.New(rand.NewSource(seed)),
		n: 128, m: 12, live: make(map[int]*Entry), filter: f,
	}
}

// flatTargets is the matrix every model run covers: the bare tier, and the
// tier behind the scatter-gather at one, an even and a prime shard count.
func flatTargets(t *testing.T, method string) map[string]func() flatLike {
	return map[string]func() flatLike{
		"flat":     func() flatLike { return newFlat(t, method) },
		"sharded1": func() flatLike { return newShardedFlat(t, method, 1) },
		"sharded4": func() flatLike { return newShardedFlat(t, method, 4) },
		"sharded7": func() flatLike { return newShardedFlat(t, method, 7) },
	}
}

// TestFlatModelLowerBound: under a filter that lower-bounds the exact
// distance (PAA — checked pair by pair as the run goes) the flat tier's
// answers are the linear scan's, bit for bit, whatever the order entries
// arrived in and however many shards hold them.
func TestFlatModelLowerBound(t *testing.T) {
	for name, build := range flatTargets(t, "PAA") {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				m := newFlatModel(t, "PAA", seed)
				m.lowerBound = true
				m.run(build(), 400)
			})
		}
	}
}

// TestFlatModelSAPLA: Dist_PAR is not a lower bound, so a true neighbour can
// be dismissed — but everything returned is a live entry with its exact
// distance in canonical order, the count is min(k, live), and on
// z-normalised mixed-family data recall stays at or above 0.97.
func TestFlatModelSAPLA(t *testing.T) {
	for name, build := range flatTargets(t, "SAPLA") {
		t.Run(name, func(t *testing.T) {
			m := newFlatModel(t, "SAPLA", 11)
			m.run(build(), 900)
			if m.truth == 0 {
				t.Fatal("no k-NN query ran")
			}
			recall := float64(m.hits) / float64(m.truth)
			t.Logf("recall %.4f over %d true neighbours, %d live at the end", recall, m.truth, len(m.live))
			if recall < 0.97 {
				t.Fatalf("recall %.4f, want >= 0.97", recall)
			}
		})
	}
}

// TestFlatHandOffSAPLA: Dist_PAR is not a lower bound, so the bound handed
// from shard to shard may dismiss what four independent searches would keep —
// but every answer is still k live entries with their exact distances in
// canonical order, and no query measures more than its shards would on their
// own.
func TestFlatHandOffSAPLA(t *testing.T) {
	for _, shards := range []int{2, 4, 7} {
		m := newFlatModel(t, "SAPLA", 71)
		idx := newShardedFlat(t, "SAPLA", shards)
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
			if len(res) != 10 {
				t.Fatalf("%s: %d results", label, len(res))
			}
			m.valid(label, q, res)
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
	idx := newShardedFlat(t, "SAPLA", shards)
	m := newFlatModel(t, "SAPLA", 73)
	for i := 0; i < 200; i++ {
		m.next++
		m.insert(idx, m.entry(m.next))
	}
	q := m.query()
	// On shard 2, a series of another length behind the query's own
	// representation: the filter puts it first among the seeds, the exact
	// distance is undefined.
	id := m.next + 1
	for ShardOf(id, shards) != 2 {
		id++
	}
	if err := idx.Insert(NewEntry(id, q.Raw[:64], q.Rep)); err != nil {
		t.Fatal(err)
	}
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
	idx := newShardedFlat(t, "SAPLA", 4)
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
	f := newFlat(t, "SAPLA")
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
	f := newFlat(t, "SAPLA")
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
	f := newFlat(t, "SAPLA")
	m := newFlatModel(t, "SAPLA", 41)
	const total = 3*flatRows + 7
	for id := 0; id < total; id++ {
		m.insert(f, m.entry(id))
	}
	if len(f.blocks) != 4 || f.generic != 0 {
		t.Fatalf("%d blocks, %d generic entries for %d rows", len(f.blocks), f.generic, total)
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

// TestFlatGenericPath: an entry with more segments than the stride keeps a
// vacant row and is still found, through the method's generic filter, next to
// entries that sit in rows — a narrower one among them, padded. A method
// with no flat form runs on the generic filter alone.
func TestFlatGenericPath(t *testing.T) {
	f := newFlat(t, "SAPLA")
	m := newFlatModel(t, "SAPLA", 51)
	for id := 1; id <= 20; id++ {
		m.insert(f, m.entry(id)) // stride 4
	}
	wide := *m
	wide.m = 18 // six segments: over the stride
	e := wide.entry(100)
	m.insert(f, e)
	narrow := *m
	narrow.m = 6 // two segments: fits a padded row
	m.insert(f, narrow.entry(101))
	if f.stride != 4 || f.generic != 1 {
		t.Fatalf("stride %d, %d generic entries; want 4 and 1", f.stride, f.generic)
	}
	for _, id := range []int{100, 101, 7} {
		x := m.live[id]
		res, st, err := f.KNN(dist.NewQuery(x.Raw, x.Rep), 3)
		if err != nil || res[0].Entry != x || res[0].Dist != 0 || st.Filtered != 22 {
			t.Fatalf("id %d: %+v %+v %v", id, res, st, err)
		}
		m.valid(fmt.Sprintf("id %d", id), dist.NewQuery(x.Raw, x.Rep), res)
	}
	// The row sweep gives PARFlat's value to rounding — padded row included —
	// and hands the vacant row to the generic measure, bit for bit.
	q := m.query()
	out := make([]float64, f.Len())
	sweepRows(t, f, NewWorkspace(), q, out)
	for s, x := range f.ents {
		want, tol := dist.PARFlat(q.Flat, dist.FlattenLinear(x.Rep)), 1e-9
		if !f.occupied(s) {
			want, _ = f.filter(q, x.Rep)
			tol = 0
		}
		if math.Abs(out[s]-want) > tol*(1+want) {
			t.Fatalf("slot %d (id %d): filter %v, want %v", s, x.ID, out[s], want)
		}
	}

	// Moving the generic entry into a hole keeps it generic and findable.
	if !f.Delete(3) || f.generic != 1 {
		t.Fatalf("generic count %d after an unrelated delete", f.generic)
	}
	delete(m.live, 3)
	if !f.Delete(101) { // the wide entry, last by now, moves into the hole
		t.Fatal("Delete(101) failed")
	}
	delete(m.live, 101)
	res, _, err := f.KNN(dist.NewQuery(e.Raw, e.Rep), 1)
	if err != nil || res[0].Entry != e {
		t.Fatalf("wide entry lost after swap-removes: %+v %v", res, err)
	}
	if !f.Delete(100) || f.generic != 0 {
		t.Fatalf("generic count %d after deleting the only generic entry", f.generic)
	}

	// A method with no flat form at all never allocates rows.
	p := newFlat(t, "PAA")
	pm := newFlatModel(t, "PAA", 52)
	for id := 1; id <= 10; id++ {
		pm.insert(p, pm.entry(id))
	}
	if p.stride != 0 || len(p.blocks) != 0 || p.generic != 10 {
		t.Fatalf("PAA tier: stride %d, %d blocks, %d generic", p.stride, len(p.blocks), p.generic)
	}
}

// TestFlatServedSAPLANeverGeneric: under SAPLA every entry gets a block row,
// whatever the first entry (which fixes the stride) looks like, so the served
// method never reaches the generic filter. It is the precondition for
// dropping that path from the served tier.
func TestFlatServedSAPLANeverGeneric(t *testing.T) {
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
				check := func(how string, f *Flat) {
					t.Helper()
					if f.generic != 0 {
						t.Fatalf("n=%d M=%d first %s, after %s: stride %d, %d generic entries",
							n, m, first, how, f.stride, f.generic)
					}
					for s := range f.ents {
						if !f.occupied(s) {
							t.Fatalf("n=%d M=%d first %s, after %s: slot %d vacant", n, m, first, how, s)
						}
					}
				}

				one := newFlat(t, "SAPLA")
				for _, e := range entries() {
					if err := one.Insert(e); err != nil {
						t.Fatal(err)
					}
				}
				check("Insert", one)
				batch := newFlat(t, "SAPLA")
				if err := batch.InsertBatch(entries()); err != nil {
					t.Fatal(err)
				}
				check("InsertBatch", batch)
				// Every third entry, the stride-fixing first one included, goes
				// out and back in: the re-insert flattens its representation
				// afresh.
				for id := 0; id < len(raws); id += 3 {
					e, _ := one.Lookup(id)
					if !one.Delete(id) {
						t.Fatalf("Delete(%d) failed", id)
					}
					if err := one.Insert(e); err != nil {
						t.Fatal(err)
					}
				}
				check("delete/re-insert", one)
			}
		}
	}
}

// TestFlatQueryErrors: a filter error aborts the query, and a query of
// another length than the stored series is an error, not a panic.
func TestFlatQueryErrors(t *testing.T) {
	f := newFlat(t, "SAPLA")
	m := newFlatModel(t, "SAPLA", 61)
	for id := 1; id <= 10; id++ {
		m.insert(f, m.entry(id))
	}
	ws := NewWorkspace()

	// A query reduced under another method: the generic measure refuses it.
	paa := newFlatModel(t, "PAA", 62)
	alien := paa.query()
	if _, _, err := f.KNNWith(ws, alien, 3); !errors.Is(err, dist.ErrIncompatible) {
		t.Fatalf("k-NN with an incompatible query: %v", err)
	}
	if _, _, err := f.Range(alien, 3); !errors.Is(err, dist.ErrIncompatible) {
		t.Fatalf("range with an incompatible query: %v", err)
	}

	// A shorter query: the representation-level measure rejects the pair.
	short := *m
	short.n, short.live = 64, nil // nothing stored to perturb: a fresh 64-point draw
	sq := short.query()
	if _, _, err := f.KNNWith(ws, sq, 3); err == nil {
		t.Fatal("k-NN with a shorter query succeeded")
	}
	if _, _, err := f.Range(sq, 3); err == nil {
		t.Fatal("range with a shorter query succeeded")
	}
	// Same, where the filter cannot tell: the raw lengths are what differ.
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
}

// sweepRows runs the filter stage alone, as KNNWith's pass 1 does: q's table,
// then every block's rows into out (one value per slot).
func sweepRows(tb testing.TB, f *Flat, ws *Workspace, q dist.Query, out []float64) {
	tb.Helper()
	tab, _ := f.queryTable(ws, q)
	if tab == nil {
		tb.Fatal("query cannot use the block rows")
	}
	for lo := 0; lo < len(out); lo += flatRows {
		if err := f.filterSlots(q, tab, lo, out[lo:min(lo+flatRows, len(out))]); err != nil {
			tb.Fatal(err)
		}
	}
}

// randomLinear fits raw over segs segments cut at random points: a valid
// segmentation no reducer would choose, so the row kernel is checked on more
// than what SAPLA happens to emit.
func randomLinear(rng *rand.Rand, raw ts.Series, segs int) repr.Linear {
	ends := append(rng.Perm(len(raw) - 1)[:segs-1], len(raw)-1)
	sort.Ints(ends)
	return repr.FitLinear(raw, ends)
}

// checkRowFilter fills a tier of the given stride with random segmentations
// (1..stride segments a row, so most rows are padded) of series at the given
// scale and offset — scale 0 draws the z-normalised mixture — and compares
// the row sweep with dist.PARFlat, row by row, for queries near to and far
// from the stored series: every value must lie within budget·(1+d). It returns
// how many values it compared and how many were PARFlat's bit for bit, which
// is what the guard's fallback produces and the kernel, to rounding, does not.
func checkRowFilter(tb testing.TB, seed int64, n, stride int, scale, offset, budget float64) (rows, exact int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	draw := func(family int) ts.Series {
		if scale == 0 {
			return mixedSeries(rng, family, n)
		}
		raw := randWalk(rng, n)
		for i := range raw {
			raw[i] = raw[i]*scale + offset
		}
		return raw
	}
	f := newFlat(tb, "SAPLA")
	for id := 0; id < 60; id++ {
		segs := stride // the first entry fixes the stride
		if id > 0 {
			segs = 1 + rng.Intn(stride)
		}
		raw := draw(id)
		if err := f.Insert(NewEntry(id, raw, randomLinear(rng, raw, segs))); err != nil {
			tb.Fatal(err)
		}
	}
	if f.stride != stride || f.generic != 0 {
		tb.Fatalf("stride %d, %d generic entries; want %d and 0", f.stride, f.generic, stride)
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
		q := dist.NewQuery(raw, randomLinear(rng, raw, 1+rng.Intn(stride)))
		sweepRows(tb, f, ws, q, out)
		for s, e := range f.ents {
			want := dist.PARFlat(q.Flat, dist.FlattenLinear(e.Rep))
			if !(math.Abs(out[s]-want) <= budget*(1+want)) {
				tb.Fatalf("n=%d scale=%g offset=%g query %d slot %d (%d segments): filter %v, PARFlat %v",
					n, scale, offset, qi, s, len(e.Rep.(repr.Linear).Segs), out[s], want)
			}
			rows++
			if math.Float64bits(out[s]) == math.Float64bits(want) {
				exact++
			}
		}
	}
	return rows, exact
}

// TestFlatRowFilter: the table kernel is Dist_PAR — dist.PARFlat's value to
// 1e-9·(1+d) — on z-normalised and raw-scale data at every served length, and
// without an offset it is the kernel that ran, not the guard's fallback. The
// offsets in between walk d²/(‖q̂‖²+‖ĉ‖²) down through parGuard, and they are
// what sets it: the test holds the kernel to a tenth of the budget so that
// the budget survives the draws it does not make, and rows just above a guard
// of 1e-6 land at 0.5–1.7× the budget, of 1e-5 at 0.16×, of 1e-4 at 0.014×.
func TestFlatRowFilter(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		for _, scale := range []float64{0, 0.01, 1, 50} {
			for _, offset := range []float64{0, 100, 3e3, 1e4, 1e5} {
				rows, exact := checkRowFilter(t, int64(n)+int64(offset), n, 6, scale, offset, 1e-10)
				if offset == 0 && exact*2 > rows {
					t.Fatalf("n=%d scale=%g: %d of %d values are PARFlat's own: the kernel did not run",
						n, scale, exact, rows)
				}
				if scale == 0 {
					break // the z-normalised mixture carries no offset
				}
			}
		}
	}
}

// TestFlatRowFilterGuard: under a common offset of 1e6 the norms dwarf the
// distance, d² cancels to noise, and every row must come from the fallback —
// PARFlat's value exactly.
func TestFlatRowFilterGuard(t *testing.T) {
	for _, n := range []int{64, 256, 1024} {
		rows, exact := checkRowFilter(t, int64(n), n, 6, 1, 1e6, 0)
		if exact != rows {
			t.Fatalf("n=%d: %d of %d rows bypassed the guard", n, rows-exact, rows)
		}
	}
}

// FuzzFlatRowFilter lets the fuzzer pick length, stride, scale and offset —
// in particular the offsets around which rows start to take the guard.
func FuzzFlatRowFilter(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), 0.0, 0.0)
	f.Add(int64(2), uint8(1), uint8(1), 1.0, 1e6)
	f.Add(int64(3), uint8(2), uint8(9), 30.0, 2500.0)
	f.Add(int64(4), uint8(1), uint8(6), 1e-3, 0.1)
	f.Fuzz(func(t *testing.T, seed int64, length, stride uint8, scale, offset float64) {
		scale, offset = math.Abs(scale), math.Abs(offset)
		if !(scale <= 1e3) || !(offset <= 1e7) || (scale > 0 && scale < 1e-3) {
			t.Skip("outside the range a float64 series can carry nine digits through")
		}
		n := []int{64, 256, 1024}[length%3]
		checkRowFilter(t, seed, n, 1+int(stride%12), scale, offset, 1e-9)
	})
}

// TestFlatReusedSlotPadding: a two-segment entry moving into the slot a
// four-segment one left must not inherit its coefficients. A finite leftover
// would be multiplied by the empty range and vanish; a non-finite one (a
// hand-built entry — the server's are validated) turns the new tenant's
// filter distance into NaN for as long as it lives.
func TestFlatReusedSlotPadding(t *testing.T) {
	f := newFlat(t, "SAPLA")
	m := newFlatModel(t, "SAPLA", 81)
	m.insert(f, m.entry(1)) // four segments: the stride
	rng := rand.New(rand.NewSource(82))
	raw := mixedSeries(rng, 0, m.n)
	wild := randomLinear(rng, raw, 4)
	wild.Segs[2].Line.A, wild.Segs[3].Line.B = math.Inf(1), math.Inf(-1)
	if err := f.Insert(NewEntry(2, raw, wild)); err != nil {
		t.Fatal(err)
	}
	if !f.Delete(2) {
		t.Fatal("Delete(2) failed")
	}
	narrow := *m
	narrow.m = 6 // two segments
	e := narrow.entry(3)
	m.insert(f, e)
	b, at := f.row(1)
	if f.ents[1] != e || !f.occupied(1) {
		t.Fatal("the narrow entry did not take the freed slot's row")
	}
	for i := at + 2; i < at+f.stride; i++ {
		if b.a[i] != 0 || b.c[i] != 0 || b.r[i] != int32(m.n-1) {
			t.Fatalf("padding at %d: a=%v c=%v r=%d", i-at, b.a[i], b.c[i], b.r[i])
		}
	}
	q := m.query()
	out := make([]float64, f.Len())
	sweepRows(t, f, NewWorkspace(), q, out)
	want := dist.PARFlat(q.Flat, dist.FlattenLinear(e.Rep))
	if !(math.Abs(out[1]-want) <= 1e-9*(1+want)) {
		t.Fatalf("reused slot: filter %v, PARFlat %v", out[1], want)
	}
}

// TestFlatRangeCoversKNN: k-NN and range share the row kernel and its guard,
// so a range query at a k-NN answer's k-th distance returns every element of
// that answer the filter admits at that radius. (Dist_PAR is not a lower
// bound: k-NN measures its seeds whatever their filter distance, and one whose
// Dist_PAR exceeds the radius while its exact distance does not is the range's
// to dismiss — at the parent commit as much as here.)
func TestFlatRangeCoversKNN(t *testing.T) {
	f := newFlat(t, "SAPLA")
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
		m.valid(fmt.Sprintf("query %d range", i), q, within)
		in := make(map[int]bool, len(within))
		for _, r := range within {
			in[r.Entry.ID] = true
		}
		for _, r := range near {
			if in[r.Entry.ID] {
				continue
			}
			if fd := dist.PARFlat(q.Flat, dist.FlattenLinear(r.Entry.Rep)); fd <= near[9].Dist*(1-1e-9) {
				t.Fatalf("query %d: k-NN answer id %d (filter %v, exact %v) missing from the range at %v",
					i, r.Entry.ID, fd, r.Dist, near[9].Dist)
			}
		}
	}
}
