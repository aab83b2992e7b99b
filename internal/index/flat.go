package index

import (
	"fmt"
	"math"

	"sapla/internal/dist"
	"sapla/internal/ts"
)

// flatRows is the number of entries per storage block: big enough that the
// per-block call is noise against 256 filter evaluations, small enough that
// growth allocates ~20 KiB at a time instead of doubling one huge slice.
const flatRows = 256

// envelopeMinChunks is the shortest envelope a row keeps: series of at least
// this many ts.EnvelopeChunk-point chunks (512 points) carry one, shorter ones
// refine with the plain kernel. Below it the bound dismisses too little to pay
// for itself: at 256 points (4 chunks) refinements read 0.85× the values and
// BenchmarkServedKNN/flat slowed by 12–17 % (2-vCPU Xeon). The 4x1500x512
// rows of BenchmarkServedKNN and BenchmarkServedRange sit at the cut, the
// sharded4/1500x1024 rows at the served long length.
const envelopeMinChunks = 8

// refined marks a filter-buffer slot whose entry has already been measured
// (the seeds of KNNWith). Filter distances are clamped to [0, +Inf], so a
// negative value cannot be one.
const refined = -1

// ErrQueryLength is returned by the flat tier when a query's length differs
// from the stored series' — the exact distance is undefined there.
var ErrQueryLength = fmt.Errorf("index: query and stored series lengths differ: %w", ts.ErrLengthMismatch)

// parGuard is the relative floor under which the row kernel's d² = ‖q̂‖² +
// ‖ĉ‖² − 2⟨q̂,ĉ⟩ has cancelled too far to trust — reconstructions that nearly
// coincide, or that share a large offset — and the row is re-evaluated by
// dist.PARFlat's merge loop, which sums squared differences and cannot
// cancel. TestFlatRowFilter sets it: rows just above the guard deviate from
// PARFlat by ~1.4e-11·(1+d) at 1e-4 and by up to 1.7e-9·(1+d) at 1e-6, and on
// z-normalised data only a row closer than 0.01·√(2n) to the query — none in
// the served benchmarks — takes the slow path.
const parGuard = 1e-4

// flatBlock holds the flattened representations (dist.FlatLinear's A/C/R) of
// flatRows consecutive slots, row by row at the index's stride, and the
// squared norm of each row's reconstruction. A row with fewer segments than
// the stride pads its endpoints with N−1 and its coefficients with 0: the
// padding spans the empty range past the series' end, so it adds exactly 0 to
// the row kernel's inner product (and PARFlat's merge loop stops at the first
// N−1 without reading it).
//
// When the series are long enough (envelopeMinChunks), a row also keeps its
// raw series' chunk envelope — ts.ChunkEnvelope of every
// ts.EnvelopeChunk-point chunk, rounded to float32 — which lets a refinement
// stop before it reads the series (ts.EuclideanSqEnvelope).
type flatBlock struct {
	a, c []float64 // slope and global-time intercept per segment
	r    []int32   // inclusive right endpoint per segment
	nn   []float64 // Σ_t ĉ(t)² per row
	em   []float32 // chunk sum / √(chunk length), chunks per row
	er   []float32 // chunk residual norm, chunks per row
}

// parTable is the query's side of the row kernel: running sums of the
// query's reconstruction q̂, built once per search so that its inner product
// with any stored segment is two table differences.
type parTable struct {
	p  [][2]float64 // p[x] = {Σ_{t<x} q̂(t), Σ_{t<x} t·q̂(t)}, x = 0..n
	qq float64      // Σ_t q̂(t)²
}

// reset rebuilds the table for q, which must be Valid, straight from its
// segments' lines.
func (t *parTable) reset(q *dist.FlatLinear) {
	if cap(t.p) < q.N+1 {
		t.p = make([][2]float64, q.N+1)
	}
	t.p = t.p[:q.N+1]
	var s0, s1, qq float64
	x := 0
	for j, r := range q.R {
		a, c := q.A[j], q.C[j]
		for ; x <= int(r); x++ {
			t.p[x] = [2]float64{s0, s1}
			tm := float64(x)
			v := a*tm + c
			s0 += v
			s1 += tm * v
			qq += v * v
		}
	}
	t.p[x] = [2]float64{s0, s1}
	t.qq = qq
}

// sqNorm returns Σ_t ĉ(t)² of a Valid flat representation in closed form per
// segment, in the segment's local time so that the global intercept's
// A·start term does not cancel against it.
func sqNorm(fl *dist.FlatLinear) float64 {
	var sum float64
	start := int32(0)
	for j, r := range fl.R {
		l := float64(r - start + 1)
		a := fl.A[j]
		b := a*float64(start) + fl.C[j]
		sum += l*(l-1)*(2*l-1)/6*a*a + l*(l-1)*a*b + l*b*b
		start = r + 1
	}
	return sum
}

// Flat is the filter-and-refine tier without a tree: every live entry sits in
// a dense slot, its flattened representation in fixed-stride
// structure-of-arrays blocks beside the entry pointer, and a query evaluates
// the filter on all of them in one contiguous sweep before refining the few
// that survive. Insert appends, Delete moves the last slot into the hole, so
// storage never fragments and there is nothing to rebalance or compact.
//
// Every entry has a block row, and the filter is Dist_PAR over the rows. The
// first entry fixes the series length and the stride; Insert refuses an entry
// the rows cannot hold. Dist_PAR is not a lower bound of the Euclidean
// distance, so a search can dismiss a true neighbour whose Dist_PAR exceeds
// its exact distance; one whose Dist_PAR does not is never dismissed.
//
// Not safe for concurrent use; wrap it in a ConcurrentIndex. The server's
// writers mutate it only through that wrapper and under a mutex of their own,
// which is then enough to read it (Lookup, Each) without the wrapper's lock.
type Flat struct {
	n, stride int // series length and segments per row; 0 until the first entry
	chunks    int // envelope chunks per row; 0 for series shorter than envelopeMinChunks chunks
	ents      []*Entry
	slot      map[int]int32 // entry ID → slot
	blocks    []flatBlock   // cover every slot
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

// Insert implements Index. It takes ownership of e: the coefficients move
// into block storage and the entry's own caches of them are dropped, so one
// copy stays resident. It refuses, with the tier and e unchanged, a duplicate
// ID (the ID is the delete key) and an entry the rows cannot hold: one with no
// flat form (a representation that is not piecewise linear), of another series
// length than the first entry's, or with more segments than its stride.
func (f *Flat) Insert(e *Entry) error {
	if _, dup := f.slot[e.ID]; dup {
		return fmt.Errorf("index: duplicate entry id %d", e.ID)
	}
	fl := e.flat
	if fl == nil {
		fl = dist.FlattenLinear(e.Rep) // an entry built by hand, or re-inserted after Insert dropped its cache
	}
	if !fl.Valid() {
		return fmt.Errorf("index: entry id %d has no flat form: %w", e.ID, dist.ErrIncompatible)
	}
	n, stride := f.n, f.stride
	if stride == 0 {
		n, stride = fl.N, len(fl.R)
	}
	if fl.N != n || len(e.Raw) != n {
		return fmt.Errorf("index: entry id %d: %d points, representation of %d, the tier holds %d: %w",
			e.ID, len(e.Raw), fl.N, n, ts.ErrLengthMismatch)
	}
	if len(fl.R) > stride {
		return fmt.Errorf("index: entry id %d has %d segments, the rows %d", e.ID, len(fl.R), stride)
	}
	if f.stride == 0 {
		f.n, f.stride = n, stride
		if nc := ts.EnvelopeChunks(n); nc >= envelopeMinChunks {
			f.chunks = nc
		}
	}
	s := len(f.ents)
	f.ents = append(f.ents, e)
	f.slot[e.ID] = int32(s)
	e.flat, e.vec = nil, nil
	for len(f.blocks)*flatRows <= s {
		f.blocks = append(f.blocks, newFlatBlock(f.stride, f.chunks))
	}
	b, at := f.row(s)
	used := copy(b.r[at:at+f.stride], fl.R)
	copy(b.a[at:], fl.A)
	copy(b.c[at:], fl.C)
	for i := at + used; i < at+f.stride; i++ {
		b.r[i] = int32(f.n - 1)
		b.a[i], b.c[i] = 0, 0 // a reused slot still holds its last tenant's
	}
	b.nn[s%flatRows] = sqNorm(fl)
	if f.chunks > 0 {
		f.setEnvelope(b, s%flatRows, e.Raw)
	}
	return nil
}

// setEnvelope writes the envelope of raw into row i of b, computed from the
// values in ts.ChunkEnvelope's two passes.
func (f *Flat) setEnvelope(b *flatBlock, i int, raw ts.Series) {
	m, rho := b.em[i*f.chunks:(i+1)*f.chunks], b.er[i*f.chunks:(i+1)*f.chunks]
	for j := range m {
		cm, cr := ts.ChunkEnvelope(raw[j*ts.EnvelopeChunk : min((j+1)*ts.EnvelopeChunk, len(raw))])
		m[j], rho[j] = float32(cm), float32(cr)
	}
}

// Envelope returns the chunk envelope the row of the entry with the given ID
// keeps, aliasing block storage: ok is false when the entry is not live or
// the rows keep none (series under envelopeMinChunks chunks).
func (f *Flat) Envelope(id int) (m, rho []float32, ok bool) {
	s, live := f.slot[id]
	if !live || f.chunks == 0 {
		return nil, nil, false
	}
	b, lo := &f.blocks[s/flatRows], int(s%flatRows)*f.chunks
	return b.em[lo : lo+f.chunks], b.er[lo : lo+f.chunks], true
}

// row returns the block holding slot s and the offset of its row there.
func (f *Flat) row(s int) (*flatBlock, int) {
	return &f.blocks[s/flatRows], (s % flatRows) * f.stride
}

// newFlatBlock allocates one zeroed block.
func newFlatBlock(stride, chunks int) flatBlock {
	b := flatBlock{
		a:  make([]float64, flatRows*stride),
		c:  make([]float64, flatRows*stride),
		r:  make([]int32, flatRows*stride),
		nn: make([]float64, flatRows),
	}
	if chunks > 0 {
		b.em, b.er = make([]float32, flatRows*chunks), make([]float32, flatRows*chunks)
	}
	return b
}

// InsertBatch implements BatchInserter: all of entries or none. A refused
// batch into a tier that never held an entry leaves the length and stride
// unset, as they were.
func (f *Flat) InsertBatch(entries []*Entry) error {
	fresh := f.stride == 0
	for i, e := range entries {
		if err := f.Insert(e); err != nil {
			for _, u := range entries[:i] {
				f.Delete(u.ID)
			}
			if fresh {
				f.n, f.stride, f.chunks, f.blocks = 0, 0, 0, nil
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
		from, fa := f.row(last)
		to, ta := f.row(s)
		copy(to.a[ta:ta+f.stride], from.a[fa:])
		copy(to.c[ta:ta+f.stride], from.c[fa:])
		copy(to.r[ta:ta+f.stride], from.r[fa:])
		to.nn[s%flatRows] = from.nn[last%flatRows]
		fe, te := (last%flatRows)*f.chunks, (s%flatRows)*f.chunks
		copy(to.em[te:te+f.chunks], from.em[fe:])
		copy(to.er[te:te+f.chunks], from.er[fe:])
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

// queryTable returns ws's table rebuilt for q, and ws's envelope rebuilt for
// q's raw values when the rows keep envelopes (nil otherwise: every refinement
// is plain). A query with no flat form is dist.ErrIncompatible, one whose raw
// values or representation have another length than the stored series is
// ErrQueryLength. The tier must hold an entry.
func (f *Flat) queryTable(ws *Workspace, q dist.Query) (*parTable, *ts.Envelope, error) {
	if !q.Flat.Valid() {
		return nil, nil, dist.ErrIncompatible
	}
	if q.Flat.N != f.n || len(q.Raw) != f.n {
		return nil, nil, ErrQueryLength
	}
	ws.tab.reset(q.Flat)
	if f.chunks == 0 {
		return &ws.tab, nil, nil
	}
	ws.env.Reset(q.Raw)
	return &ws.tab, &ws.env, nil
}

// filterSlots writes Dist_PAR from q, whose table is tab, to slots
// lo..lo+len(out)−1 (all within one block) into out.
//
// Dist_PAR is the Euclidean distance between the reconstructions q̂ and ĉ, so
// d² = ‖q̂‖² + ‖ĉ‖² − 2⟨q̂,ĉ⟩, and over one stored segment ⟨q̂,ĉ⟩ is
// A·Σt·q̂(t) + C·Σq̂(t) — two differences of tab's running sums. A row costs
// its stride in multiply-adds, with no merge against the query's endpoints.
func (f *Flat) filterSlots(q dist.Query, tab *parTable, lo int, out []float64) {
	b, _ := f.row(lo)
	p, qq, stride := tab.p, tab.qq, f.stride
	row := dist.FlatLinear{N: f.n} // the guard's view of a row
	for i := range out {
		at, end := i*stride, (i+1)*stride
		a, c, r := b.a[at:end], b.c[at:end], b.r[at:end]
		var dot float64
		var prev [2]float64
		for j, e := range r {
			cur := p[e+1]
			dot += a[j]*(cur[1]-prev[1]) + c[j]*(cur[0]-prev[0])
			prev = cur
		}
		norms := qq + b.nn[i]
		d2 := norms - 2*dot
		if d2 < parGuard*norms {
			row.A, row.C, row.R = a, c, r
			out[i] = dist.PARFlat(q.Flat, &row)
			continue
		}
		out[i] = math.Sqrt(d2)
	}
}

// abandonLimit is the squared-distance ceiling past which a candidate cannot
// enter an answer bounded by bound. The relative 1e-12 margin is ~10⁴ ulps:
// far more than the rounding of bound² and of the final square root, so a
// sum above the limit has a rounded root strictly above bound — a candidate
// offerBest (or a range test) would have rejected anyway.
func abandonLimit(bound float64) float64 { return bound * bound * (1 + 1e-12) }

// refine computes the exact squared distance from q to slot s, giving up once
// it provably exceeds limit (ok false), and counts the refinement in stats.
// With env — q's envelope, when the rows keep them — it runs
// ts.EuclideanSqEnvelope, which may end it before reading the series (counted
// as Dismissed); otherwise ts.EuclideanSqAbandon. Both return, when
// they complete, the same sequential sum ts.EuclideanSq computes, so answers
// stay bit-identical to every other index's.
func (f *Flat) refine(q dist.Query, env *ts.Envelope, s int, limit float64, stats *SearchStats) (float64, bool) {
	e := f.ents[s]
	stats.Measured++
	if env == nil {
		return ts.EuclideanSqAbandon(q.Raw, e.Raw, limit)
	}
	b, lo := &f.blocks[s/flatRows], (s%flatRows)*f.chunks
	sum, ok, dismissed := ts.EuclideanSqEnvelope(q.Raw, e.Raw, env, b.em[lo:lo+f.chunks], b.er[lo:lo+f.chunks], limit)
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
// too. Pruning is strict, so an entry tying that distance is still measured
// and the canonical merge decides the tie by ID.
func (f *Flat) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	var stats SearchStats
	n := len(f.ents)
	if n == 0 || k <= 0 {
		return nil, stats, nil
	}
	tab, env, err := f.queryTable(ws, q)
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
		f.filterSlots(q, tab, lo, out)
		for i, fd := range out {
			if !(fd >= 0) { // NaN from a rounded-negative sum: measure it rather than trust it
				fd, out[i] = 0, 0
			}
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
	ws := wsPool.Get().(*Workspace) // for the query's table
	defer wsPool.Put(ws)
	tab, env, err := f.queryTable(ws, q)
	if err != nil {
		return nil, stats, err
	}
	for lo := 0; lo < n; lo += flatRows {
		filt := buf[:min(flatRows, n-lo)]
		f.filterSlots(q, tab, lo, filt)
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
