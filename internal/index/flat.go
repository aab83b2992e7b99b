package index

import (
	"fmt"
	"math"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// flatRows is the number of entries per storage block: big enough that the
// per-block call is noise against 256 filter evaluations, small enough that
// growth allocates ~33 KiB at a time instead of doubling one huge slice.
const flatRows = 256

// envelopeAbandonMin is the shortest series whose refinements abandon on the
// chunk envelope (ts.EuclideanSqEnvelope) rather than on the partial sum alone
// (ts.EuclideanSqAbandon). The filter has already applied the bound, so what
// the envelope adds at refine time is the suffix bound over the chunks a
// refinement has not reached: worth it on long series, dearer than the plain
// loop on short ones (BenchmarkServedKNN's flat, 4x1500x512 and
// sharded4/1500x1024 rows).
const envelopeAbandonMin = 512

// refined marks a filter-buffer slot whose entry has already been measured
// (the seeds of KNNWith). Filter distances are at least 0, so a negative
// value cannot be one.
const refined = -1

// ErrQueryLength is returned by the flat tier when a query's length differs
// from the stored series' — the exact distance is undefined there.
var ErrQueryLength = fmt.Errorf("index: query and stored series lengths differ: %w", ts.ErrLengthMismatch)

// flatBlock holds the chunk envelopes of flatRows consecutive slots: per row,
// its raw series' envelope vector (ts.EnvelopeRow: every chunk's
// ts.ChunkEnvelope rounded to float32, ts.EnvelopeWidth values) and its slack.
type flatBlock struct {
	env   []float32 // ts.EnvelopeWidth values per row
	slack []float32 // one per row
}

// Flat is the filter-and-refine tier without a tree: every live entry sits in
// a dense slot, its raw series' chunk envelope in structure-of-arrays blocks
// beside the entry pointer, and a query evaluates the filter on all of them
// in one contiguous sweep before refining the few that survive. Insert
// appends, Delete moves the last slot into the hole, so storage never
// fragments and there is nothing to rebalance or compact.
//
// The filter is ts.Envelope.LowerBounds, a proven lower bound of the computed
// Euclidean distance, so k-NN and range answers are exactly a linear scan's,
// distance bits and ties included. Rows are built from the raw series only:
// the tier never reads an entry's representation. The first entry fixes the
// series length; Insert refuses an entry of another length.
//
// Not safe for concurrent use; wrap it in a ConcurrentIndex. The server's
// writers mutate it only through that wrapper and under a mutex of their own,
// which is then enough to read it (Lookup, Each) without the wrapper's lock.
type Flat struct {
	n       int  // series length; 0 until the first entry
	abandon bool // refinements abandon on the envelope: series of at least envelopeAbandonMin points
	ents    []*Entry
	slot    map[int]int32 // entry ID → slot
	blocks  []flatBlock   // cover every slot
}

// NewFlat builds an empty flat tier.
func NewFlat() *Flat {
	return &Flat{slot: make(map[int]int32)}
}

// Len implements Index.
func (f *Flat) Len() int { return len(f.ents) }

// Lookup returns the live entry with the given ID.
func (f *Flat) Lookup(id int) (*Entry, bool) {
	s, ok := f.slot[id]
	if !ok {
		return nil, false
	}
	return f.ents[s], true
}

// Each calls fn with every live entry.
func (f *Flat) Each(fn func(e *Entry)) {
	for _, e := range f.ents {
		fn(e)
	}
}

// Insert implements Index. It drops the entry's cached coefficient vector and
// flat form, which the tier never reads. It refuses, with the tier and e
// unchanged, a duplicate ID (the ID is the delete key), an empty series and
// one of another length than the first entry's.
func (f *Flat) Insert(e *Entry) error {
	if _, dup := f.slot[e.ID]; dup {
		return fmt.Errorf("index: duplicate entry id %d", e.ID)
	}
	n := f.n
	if n == 0 {
		n = len(e.Raw)
	}
	if len(e.Raw) != n || n == 0 {
		return fmt.Errorf("index: entry id %d: %d points, the tier holds %d: %w", e.ID, len(e.Raw), f.n, ts.ErrLengthMismatch)
	}
	if f.n == 0 {
		f.n, f.abandon = n, n >= envelopeAbandonMin
	}
	s := len(f.ents)
	f.ents = append(f.ents, e)
	f.slot[e.ID] = int32(s)
	e.flat, e.vec = nil, nil
	if len(f.blocks)*flatRows <= s {
		f.blocks = append(f.blocks, flatBlock{
			env:   make([]float32, flatRows*ts.EnvelopeWidth),
			slack: make([]float32, flatRows),
		})
	}
	v, slack := f.row(s)
	*slack = ts.EnvelopeRow(e.Raw, v)
	return nil
}

// row returns slot s's envelope vector and slack, aliasing block storage.
func (f *Flat) row(s int) (v []float32, slack *float32) {
	b, i := &f.blocks[s/flatRows], s%flatRows
	return b.env[i*ts.EnvelopeWidth : (i+1)*ts.EnvelopeWidth], &b.slack[i]
}

// Envelope returns the envelope vector and slack the row of the entry with
// the given ID keeps, the vector aliasing block storage; ok is false when the
// entry is not live.
func (f *Flat) Envelope(id int) (v []float32, slack float32, ok bool) {
	s, live := f.slot[id]
	if !live {
		return nil, 0, false
	}
	v, ps := f.row(int(s))
	return v, *ps, true
}

// InsertBatch implements BatchInserter: all of entries or none. A refused
// batch into a tier that never held an entry leaves the length unset, as it
// was.
func (f *Flat) InsertBatch(entries []*Entry) error {
	fresh := f.n == 0
	for i, e := range entries {
		if err := f.Insert(e); err != nil {
			for _, u := range entries[:i] {
				f.Delete(u.ID)
			}
			if fresh {
				f.n, f.abandon, f.blocks = 0, false, nil
			}
			return err
		}
	}
	return nil
}

// Delete implements Deleter by swap-remove: the last slot's entry and row
// move into the hole. Blocks past one spare are released.
func (f *Flat) Delete(id int) bool {
	s32, ok := f.slot[id]
	if !ok {
		return false
	}
	s, last := int(s32), len(f.ents)-1
	if s != last {
		moved := f.ents[last]
		f.ents[s] = moved
		f.slot[moved.ID] = s32
		from, fromSlack := f.row(last)
		to, toSlack := f.row(s)
		copy(to, from)
		*toSlack = *fromSlack
	}
	f.ents[last] = nil
	f.ents = f.ents[:last]
	delete(f.slot, id)
	// With the block before the last one empty too, the last is a second
	// spare: let it go.
	if nb := len(f.blocks); nb >= 2 && (nb-2)*flatRows >= last {
		f.blocks[nb-1] = flatBlock{}
		f.blocks = f.blocks[:nb-1]
	}
	return true
}

// queryEnvelope returns ws's envelope rebuilt for q's raw values, or
// ErrQueryLength when they have another length than the stored series. The
// tier must hold an entry.
func (f *Flat) queryEnvelope(ws *Workspace, q dist.Query) (*ts.Envelope, error) {
	if len(q.Raw) != f.n {
		return nil, ErrQueryLength
	}
	ws.env.Reset(q.Raw)
	return &ws.env, nil
}

// filterSlots writes the envelope lower bound from the query, whose envelope
// is env, to slots lo..lo+len(out)−1 (all within one block) into out.
func (f *Flat) filterSlots(env *ts.Envelope, lo int, out []float64) {
	b := &f.blocks[lo/flatRows]
	at := lo % flatRows
	env.LowerBounds(b.env[at*ts.EnvelopeWidth:], b.slack[at:], out)
}

// abandonLimit is the squared-distance ceiling past which a candidate cannot
// enter an answer bounded by bound. The relative 1e-12 margin is ~10⁴ ulps:
// far more than the rounding of bound² and of the final square root, so a
// sum above the limit has a rounded root strictly above bound — a candidate
// offerBest (or a range test) would have rejected anyway.
func abandonLimit(bound float64) float64 { return bound * bound * (1 + 1e-12) }

// refine computes the exact squared distance from q, whose envelope is env,
// to slot s, giving up once it provably exceeds limit (ok false), and counts
// the refinement in stats. On series of at least envelopeAbandonMin points it
// runs ts.EuclideanSqEnvelope against the row's envelope, which may end it
// before reading the series (counted as Dismissed); otherwise
// ts.EuclideanSqAbandon. Both return, when they complete, the same sequential
// sum ts.EuclideanSq computes, so answers stay bit-identical to every other
// index's.
func (f *Flat) refine(q dist.Query, env *ts.Envelope, s int, limit float64, stats *SearchStats) (float64, bool) {
	e := f.ents[s]
	stats.Measured++
	if !f.abandon {
		return ts.EuclideanSqAbandon(q.Raw, e.Raw, limit)
	}
	row, _ := f.row(s)
	sum, ok, dismissed := ts.EuclideanSqEnvelope(q.Raw, e.Raw, env, row, limit)
	if dismissed {
		stats.Dismissed++
	}
	return sum, ok
}

// measure refines slot s against the running k-th best distance and returns
// the updated bound — never looser than the one it was given, so a search
// handed a bound (Workspace.bound) keeps pruning against it while its own
// heap fills.
func (f *Flat) measure(ws *Workspace, q dist.Query, env *ts.Envelope, k, s int, kth float64, stats *SearchStats) float64 {
	if sum, ok := f.refine(q, env, s, abandonLimit(kth), stats); ok {
		kth = min(kth, ws.offerBest(k, math.Sqrt(sum), f.ents[s]))
	}
	return kth
}

// KNN implements Index.
func (f *Flat) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(f, q, k)
}

// KNNWith implements WorkspaceSearcher in two passes over a workspace-owned
// buffer of filter distances. Pass 1 filters every live entry and keeps the k
// smallest filter distances; those entries are measured first, which seeds
// the k-th best distance close to its final value. Pass 2 walks the buffer
// and measures only entries whose filter distance does not exceed the running
// bound, abandoning each exact distance as soon as it cannot beat it. The
// bound starts at ws.bound: +Inf, or inside a scatter-gather search the k-th
// best distance the shards before this one earned, which the seeds must beat
// too. Pruning is strict and the filter never exceeds a computed distance, so
// an entry tying that distance is still measured and the canonical merge
// decides the tie by ID: the answer is the linear scan's.
func (f *Flat) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	var stats SearchStats
	n := len(f.ents)
	if n == 0 || k <= 0 {
		return nil, stats, nil
	}
	env, err := f.queryEnvelope(ws, q)
	if err != nil {
		return nil, stats, err
	}
	if cap(ws.filt) < n {
		ws.filt = make([]float64, n+n/4)
	}
	filt := ws.filt[:n]
	seeds := ws.seeds
	seeds.Reset()
	ws.best.Reset()
	for lo := 0; lo < n; lo += flatRows {
		out := filt[lo:min(lo+flatRows, n)]
		f.filterSlots(env, lo, out)
		for i, fd := range out {
			if seeds.Len() < k {
				seeds.Push(fd, int32(lo+i))
			} else if fd < seeds.PeekPriority() {
				seeds.Pop()
				seeds.Push(fd, int32(lo+i))
			}
		}
	}
	stats.Filtered = n

	kth := ws.bound
	for seeds.Len() > 0 {
		fd, s := seeds.Pop()
		filt[s] = refined
		if fd > kth {
			continue
		}
		kth = f.measure(ws, q, env, k, int(s), kth, &stats)
	}
	for s, fd := range filt {
		if fd < 0 || fd > kth {
			continue
		}
		kth = f.measure(ws, q, env, k, s, kth, &stats)
	}
	return ws.drainResults(), stats, nil
}

// Range implements RangeSearcher: the one-pass twin of KNNWith against a
// fixed bound — filter a block, measure what the filter lets through,
// abandoning past radius².
func (f *Flat) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	var stats SearchStats
	n := len(f.ents)
	if n == 0 || radius < 0 {
		return nil, stats, nil
	}
	var out []Result
	var buf [flatRows]float64
	limit := abandonLimit(radius)
	ws := wsPool.Get().(*Workspace) // for the query's envelope
	defer wsPool.Put(ws)
	env, err := f.queryEnvelope(ws, q)
	if err != nil {
		return nil, stats, err
	}
	for lo := 0; lo < n; lo += flatRows {
		filt := buf[:min(flatRows, n-lo)]
		f.filterSlots(env, lo, filt)
		stats.Filtered += len(filt)
		for i, fd := range filt {
			if fd > radius {
				continue
			}
			sum, ok := f.refine(q, env, lo+i, limit, &stats)
			if !ok {
				continue
			}
			if exact := math.Sqrt(sum); exact <= radius {
				out = append(out, Result{Entry: f.ents[lo+i], Dist: exact})
			}
		}
	}
	sortResults(out)
	return out, stats, nil
}
