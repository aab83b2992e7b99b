package index

import (
	"fmt"
	"math"
	"math/bits"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// flatRows is the number of entries per storage block: big enough that the
// per-block call is noise against 256 filter evaluations, small enough that
// growth allocates ~33 KiB at a time instead of doubling one huge slice.
const flatRows = 256

// ErrQueryLength is returned by the flat tier when a query's length differs
// from the stored series' — the exact distance is undefined there.
var ErrQueryLength = fmt.Errorf("index: query and stored series lengths differ: %w", ts.ErrLengthMismatch)

// flatBlock holds the chunk envelopes of flatRows consecutive slots: per row,
// its raw series' envelope vector (ts.EnvelopeRow: every chunk's polynomial
// coordinates and residual norm rounded to float32, ts.EnvelopeWidth values)
// and its slack.
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
	n      int // series length; 0 until the first entry
	ents   []*Entry
	slot   map[int]int32 // entry ID → slot
	blocks []flatBlock   // cover every slot
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

// Insert implements Index. It refuses, with the tier and e unchanged, a
// duplicate ID (the ID is the delete key), an empty series and one of another
// length than the first entry's.
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
	f.n = n
	s := len(f.ents)
	f.ents = append(f.ents, e)
	f.slot[e.ID] = int32(s)
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
				f.n, f.blocks = 0, nil
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

// refineSlots refines, four at a time (ts.RefineGroup), the slots of seeds —
// or, when seeds is nil, every slot in slot order — whose filter distance is
// at most the running bound kth, ws.kth(k) (a NaN one, a refined seed's mark,
// never is), which every offer can only tighten. A group takes the next four
// such slots under kth as it stands when the group forms, counts them in
// stats, and runs until every lane has finished, under the limit kth gives
// before each kernel call; a finished lane is not refilled, so which
// candidates are refined never depends on where a lane gave up. A completed
// lane's sum is the sequential sum ts.EuclideanSq computes, and offerBest's
// (distance, ID) order decides ties as a scan does, so answers stay
// bit-identical to every other index's.
func (f *Flat) refineSlots(ws *Workspace, q dist.Query, k int, seeds []int32, stats *SearchStats) {
	kth := ws.kth(k)
	filt := ws.filt[:len(f.ents)]
	end := len(filt)
	if seeds != nil {
		end = len(seeds)
	}
	g := &ws.group
	var lane [ts.GroupLanes]int32 // the slot each lane refines
	for at := 0; at < end; {
		g.Reset(q.Raw)
		lanes := 0
		for ; at < end && lanes < ts.GroupLanes; at++ {
			s := int32(at)
			if seeds != nil {
				s = seeds[at]
			}
			if fd := filt[s]; !(fd <= kth) {
				continue // pruned, or a seed already refined (NaN)
			}
			lane[g.Add(f.ents[s].Raw)] = s
			lanes++
		}
		stats.Measured += lanes
		for g.Live() != 0 {
			for done := g.Refine(abandonLimit(kth)); done != 0; done &= done - 1 {
				j := bits.TrailingZeros8(done)
				if sum, ok := g.Result(j); ok {
					kth = ws.offerBest(k, math.Sqrt(sum), f.ents[lane[j]])
				}
			}
		}
	}
}

// KNN implements Index.
func (f *Flat) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(f, q, k, math.Inf(1))
}

// KNNWith implements Index (search).
func (f *Flat) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	return search(f, ws, q, k, math.Inf(1))
}

// collect implements Index in two passes over a workspace-owned
// buffer of filter distances. Pass 1 filters every live entry and keeps the k
// smallest filter distances; those entries are measured first, which seeds
// the k-th best distance close to its final value. Pass 2 walks the buffer
// and measures only entries whose filter distance does not exceed the running
// bound, abandoning each exact distance as soon as it cannot beat it. Both
// measure four entries at a time (refineSlots). The
// bound starts at ws.kth(k): +Inf, a range query's radius, which the seeds
// must beat too, or, inside a scatter-gather search, the worst of the set the
// shards before this one filled. With k >= n there are no seeds: this tier
// cannot fill the set alone, and pass 2 measures in slot order every entry
// the bound lets through. Pruning is strict and the filter never exceeds a
// computed distance, so an entry tying that distance is still measured and
// offerBest decides the tie by ID: the answer is the linear scan's.
func (f *Flat) collect(ws *Workspace, q dist.Query, k int) (SearchStats, error) {
	var stats SearchStats
	n := len(f.ents)
	if n == 0 {
		return stats, nil
	}
	env, err := f.queryEnvelope(ws, q)
	if err != nil {
		return stats, err
	}
	if cap(ws.filt) < n {
		ws.filt = make([]float64, n+n/4)
	}
	filt := ws.filt[:n]
	seeds := ws.seeds
	seeds.Reset()
	// worst is the seed heap's largest filter distance once it holds k, +Inf
	// before: every filter distance is finite, so a slot enters the heap
	// exactly when the heap would have taken it.
	worst := math.Inf(1)
	for lo := 0; lo < n; lo += flatRows {
		out := filt[lo:min(lo+flatRows, n)]
		f.filterSlots(env, lo, out)
		if k >= n {
			continue // this tier cannot fill the set, so no seed could tighten the bound
		}
		for i, fd := range out {
			if fd < worst {
				if seeds.Len() == k {
					seeds.Pop()
				}
				seeds.Push(fd, int32(lo+i))
				if seeds.Len() == k {
					worst = seeds.PeekPriority()
				}
			}
		}
	}
	stats.Filtered = n

	// The seeds go through the same groups first, in the order the heap
	// gives them up, under the set's moving worst.
	if seeds.Len() > 0 {
		order := ws.order[:0]
		for seeds.Len() > 0 {
			_, s := seeds.Pop()
			order = append(order, s)
		}
		ws.order = order
		f.refineSlots(ws, q, k, order, &stats)
		for _, s := range order {
			filt[s] = math.NaN() // refined: pass 2's one compare skips it
		}
	}
	f.refineSlots(ws, q, k, nil, &stats)
	return stats, nil
}

// Range implements Index: the k-NN search under the fixed bound radius
// (rangeSearch).
func (f *Flat) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	return rangeSearch(f, q, radius)
}
