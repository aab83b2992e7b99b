package index

import (
	"context"
	"errors"
	"fmt"
	"math"

	"sapla/internal/dist"
	"sapla/internal/par"
)

// ErrNoShards is returned when constructing a ShardedIndex with a
// non-positive shard count.
var ErrNoShards = errors.New("index: shard count must be >= 1")

// ShardOf maps a series ID to its shard with a splitmix64-style finalizer:
// a stable, seedless integer hash, so the same ID lands on the same shard in
// every process, every run and every recovery — the property the per-shard
// WAL layout depends on (a record must replay into the shard that logged
// it). Sequential IDs spread uniformly instead of clustering on one shard
// the way a plain modulo would under strided workloads.
func ShardOf(id, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// ShardedIndex partitions entries across N independent ConcurrentIndex
// shards by ShardOf(entry ID). Each shard owns its own inner index, write
// lock and epoch counter, so writes to different shards proceed concurrently.
// Every shard searches under its own shared lock, whatever its inner index;
// for the flat-tier shards sapla-serve runs, the writer a search can queue
// behind holds the lock for one append or swap. The gather runs through the
// canonical (distance, ID) merge: whenever each shard returns its true top-k
// — the flat tier, whose chunk-envelope filter lower-bounds the computed
// distance, or a tree or the linear scan under such a filter — the merged
// k-NN and range answers are byte-identical to the single-shard answer, and
// to a linear scan's, for any shard count. Shards are visited in order and
// each flat shard prunes from the bound the ones before it earned (KNNWith),
// which changes the work a query does, never its answer.
type ShardedIndex struct {
	shards []*ConcurrentIndex
}

// NewSharded builds a sharded index with shards partitions, calling newInner
// once per shard to construct its inner index (sapla-serve passes one flat
// tier per shard).
func NewSharded(shards int, newInner func(shard int) (Index, error)) (*ShardedIndex, error) {
	if shards < 1 {
		return nil, ErrNoShards
	}
	s := &ShardedIndex{shards: make([]*ConcurrentIndex, shards)}
	for i := range s.shards {
		inner, err := newInner(i)
		if err != nil {
			return nil, fmt.Errorf("index: shard %d: %w", i, err)
		}
		s.shards[i] = NewConcurrent(inner)
	}
	return s, nil
}

// NumShards returns the partition count.
func (s *ShardedIndex) NumShards() int { return len(s.shards) }

// Shard returns shard i for direct per-shard operations (the server's
// per-shard batch commit and its unwind).
func (s *ShardedIndex) Shard(i int) *ConcurrentIndex { return s.shards[i] }

// ShardFor returns the shard that owns id.
func (s *ShardedIndex) ShardFor(id int) *ConcurrentIndex {
	return s.shards[ShardOf(id, len(s.shards))]
}

// Insert implements Index, routing the entry to its shard.
func (s *ShardedIndex) Insert(e *Entry) error {
	return s.ShardFor(e.ID).Insert(e)
}

// InsertBatch splits the batch by shard and commits the per-shard groups
// concurrently (par.Do), one exclusive lock acquisition and one epoch advance
// per touched shard. Entries keep their relative order within each shard, so
// each shard's slot order is a deterministic function of the batch contents.
// The commits are not cancellable and a failed shard does not undo the others:
// the first error in shard order is returned.
func (s *ShardedIndex) InsertBatch(entries []*Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if len(s.shards) == 1 {
		return s.shards[0].InsertBatch(entries)
	}
	groups := make([][]*Entry, len(s.shards))
	for _, e := range entries {
		si := ShardOf(e.ID, len(s.shards))
		groups[si] = append(groups[si], e)
	}
	errs := make([]error, len(s.shards))
	par.Do(context.Background(), len(s.shards), len(s.shards), func(si int) {
		if len(groups[si]) > 0 {
			errs[si] = s.shards[si].InsertBatch(groups[si])
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the entry with the given ID from its shard.
func (s *ShardedIndex) Delete(id int) bool {
	return s.ShardFor(id).Delete(id)
}

// Len implements Index as the sum of the shard sizes.
func (s *ShardedIndex) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Epoch returns the sum of the per-shard mutation epochs: any mutation
// anywhere advances it, and equal sums across two observations of an
// otherwise-quiescent index promise no shard changed between them. It takes
// no lock.
func (s *ShardedIndex) Epoch() uint64 {
	var e uint64
	for _, sh := range s.shards {
		e += sh.Epoch()
	}
	return e
}

// Compact offers every shard a rebuild at the given fragmentation threshold
// and reports how many shards actually rebuilt. Shards compact one at a
// time here, and each rebuild locks only its own shard — queries and writes
// on the other shards proceed untouched, which is the point of sharding the
// arena maintenance.
func (s *ShardedIndex) Compact(minFragmentation float64) int {
	n := 0
	for _, sh := range s.shards {
		if sh.Compact(minFragmentation) {
			n++
		}
	}
	return n
}

// Fragmentation reports the entry-weighted mean fragmentation across shards
// (the fraction of dead arena slots a full compaction would reclaim).
func (s *ShardedIndex) Fragmentation() float64 {
	var frag, weight float64
	for _, sh := range s.shards {
		sh.View(func(inner Index) {
			if comp, ok := inner.(Compactor); ok {
				w := float64(inner.Len()) + 1 // +1 keeps empty shards from dividing by zero
				frag += comp.Fragmentation() * w
				weight += w
			}
		})
	}
	if weight == 0 { //sapla:floateq exact zero test: weight is a sum of counts, never a rounded computation
		return 0
	}
	return frag / weight
}

// mergeTopK selects the k best candidates under the canonical
// (distance, ID) order. The k-bounded tie heap keeps exactly the k smallest
// candidates seen regardless of feed order, so the merged answer equals what
// one tree holding every entry would return. The returned slice aliases ws.
func mergeTopK(ws *Workspace, k int, cand []Result) []Result {
	ws.best.Reset()
	for i := range cand {
		ws.offerBest(k, cand[i].Dist, cand[i].Entry)
	}
	return ws.drainResults()
}

// KNN implements Index over all shards.
func (s *ShardedIndex) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(s, q, k)
}

// KNNWith implements WorkspaceSearcher by visiting the shards in order on one
// workspace and keeping one running top-k across them (ws.cand): each shard's
// answer is folded in under the canonical (distance, ID) order, and once k
// results are held their k-th distance is the bound the next shard starts
// pruning from (ws.bound; the flat tier honours it, the trees start from
// +Inf). That bound is an exact distance already measured, so it is never
// below the global k-th, and the flat tier prunes only an entry whose filter
// distance — never above its computed distance — exceeds it: no true
// neighbour is lost. ws.bound is back at +Inf on every return. Every shard
// search sees one consistent state of that shard. There is no per-query
// fan-out: BatchKNN fills the cores with queries.
func (s *ShardedIndex) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	if len(s.shards) == 1 {
		return s.shards[0].KNNWith(ws, q, k)
	}
	var stats SearchStats
	ws.cand = ws.cand[:0]
	for _, sh := range s.shards {
		res, st, err := sh.KNNWith(ws, q, k)
		if err != nil {
			ws.bound = math.Inf(1)
			return nil, stats, err
		}
		stats.Add(st)
		ws.cand = append(ws.cand, res...)
		ws.cand = append(ws.cand[:0], mergeTopK(ws, k, ws.cand)...)
		if k > 0 && len(ws.cand) == k {
			ws.bound = ws.cand[k-1].Dist
		}
	}
	ws.bound = math.Inf(1)
	return ws.cand, stats, nil
}

// Range implements RangeSearcher by scatter-gather: per-shard answers are
// concatenated and sorted under the canonical (distance, ID) order, which is
// exactly the order a single tree would return. A shard's error — ErrNoRange
// from one whose index has no range search — is the answer.
func (s *ShardedIndex) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	var stats SearchStats
	var out []Result
	for _, sh := range s.shards {
		res, st, err := sh.Range(q, radius)
		if err != nil {
			return nil, stats, err
		}
		stats.Add(st)
		out = append(out, res...)
	}
	sortResults(out)
	return out, stats, nil
}
