package index

import (
	"math"
	"sync"
	"sync/atomic"

	"sapla/internal/dist"
)

// Deleter is implemented by indexes that can remove an entry by ID (the flat
// tier and both trees; the linear scan opts out).
type Deleter interface {
	Delete(id int) bool
}

// BatchInserter is implemented by indexes with an all-or-nothing batched
// ingest path (the flat tier's InsertBatch, which rolls itself back on a
// failed entry, and the DBCH-tree's, which amortizes per-entry maintenance).
type BatchInserter interface {
	InsertBatch(entries []*Entry) error
}

// Compactor is implemented by indexes whose storage can fragment under
// deletes and be rebuilt (the DBCH-tree's arena).
type Compactor interface {
	// Fragmentation reports the dead fraction of the index's storage in [0,1].
	Fragmentation() float64
	// Compact rebuilds the storage without changing answers.
	Compact()
}

// ConcurrentIndex makes any Index safe for concurrent readers and writers:
// searches hold the shared lock for the whole traversal, mutations the
// exclusive lock. The wrapped index itself stays a single-threaded
// structure.
//
// Every committed mutation advances an epoch counter exactly once, and a
// failed one leaves it alone, which gives callers a consistency token: two
// observations with equal epochs saw the identical index. The counter is
// written only under the exclusive lock but read with a plain atomic load,
// so Epoch never queues behind a writer.
type ConcurrentIndex struct {
	// epoch is accessed only through its atomic methods; mu guards inner.
	epoch atomic.Uint64

	mu    sync.RWMutex
	inner Index
}

// NewConcurrent wraps inner for concurrent use. The caller must stop using
// inner directly: every access has to go through the wrapper.
func NewConcurrent(inner Index) *ConcurrentIndex {
	return &ConcurrentIndex{inner: inner}
}

// commitLocked records a successful mutation. Callers hold the exclusive
// lock, so a reader holding the shared lock sees a fixed epoch.
func (c *ConcurrentIndex) commitLocked() {
	c.epoch.Add(1)
}

// Insert implements Index under the exclusive lock.
func (c *ConcurrentIndex) Insert(e *Entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Insert(e); err != nil {
		return err
	}
	c.commitLocked()
	return nil
}

// InsertBatch adds a batch of entries under one exclusive lock acquisition,
// advancing the epoch once per batch: no reader can observe the
// intermediate states, so they get no epoch of their own. It falls back to
// per-entry Insert calls (still under the single lock hold) when the wrapped
// index has no batch path. That fallback is not atomic: an entry refused
// mid-batch returns its error with the entries before it inserted, and the
// epoch then still advances, since the index changed.
func (c *ConcurrentIndex) InsertBatch(entries []*Entry) error {
	if len(entries) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.inner.(BatchInserter); ok {
		if err := b.InsertBatch(entries); err != nil {
			return err
		}
		c.commitLocked()
		return nil
	}
	for i, e := range entries {
		if err := c.inner.Insert(e); err != nil {
			if i > 0 {
				c.commitLocked()
			}
			return err
		}
	}
	c.commitLocked()
	return nil
}

// Compact rebuilds the wrapped index's storage when its fragmentation is at
// least minFragmentation, reporting whether a rebuild ran. Compaction never
// changes answers, but it does move memory, so it still advances the epoch:
// epoch equality promises bit-identical traversal state, not just identical
// contents.
func (c *ConcurrentIndex) Compact(minFragmentation float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	comp, ok := c.inner.(Compactor)
	if !ok || comp.Fragmentation() < minFragmentation {
		return false
	}
	comp.Compact()
	c.commitLocked()
	return true
}

// Delete removes the entry with the given ID under the exclusive lock. It
// returns false when the ID is absent or the wrapped index cannot delete.
func (c *ConcurrentIndex) Delete(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.inner.(Deleter)
	if !ok || !d.Delete(id) {
		return false
	}
	c.commitLocked()
	return true
}

// Len implements Index.
func (c *ConcurrentIndex) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inner.Len()
}

// Epoch returns the current mutation epoch without taking the lock. Epochs
// are monotone, and every committed mutation advances the counter exactly
// once.
func (c *ConcurrentIndex) Epoch() uint64 {
	return c.epoch.Load()
}

// KNN implements Index by borrowing a pooled workspace around KNNWith.
func (c *ConcurrentIndex) KNN(q dist.Query, k int) ([]Result, SearchStats, error) {
	return pooledKNN(c, q, k, math.Inf(1))
}

// KNNWith implements Index (search). The results correspond to one
// consistent state of the index: the one the shared lock holds still.
func (c *ConcurrentIndex) KNNWith(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, error) {
	return search(c, ws, q, k, math.Inf(1))
}

// collect implements Index under the shared lock.
func (c *ConcurrentIndex) collect(ws *Workspace, q dist.Query, k int) (SearchStats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inner.collect(ws, q, k)
}

// KNNSnapshot is KNNWith plus the epoch the answers correspond to — the
// version of the index that produced the results. The epoch is read under
// the shared lock, which excludes every writer, so it cannot move during
// the search.
func (c *ConcurrentIndex) KNNSnapshot(ws *Workspace, q dist.Query, k int) ([]Result, SearchStats, uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	epoch := c.epoch.Load()
	res, stats, err := search(c.inner, ws, q, k, math.Inf(1))
	return res, stats, epoch, err
}

// Range implements Index under the shared lock.
func (c *ConcurrentIndex) Range(q dist.Query, radius float64) ([]Result, SearchStats, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inner.Range(q, radius)
}

// View runs f with the wrapped index under the shared lock — for read-only
// inspection (Stats, diagnostics) that needs the concrete type. Writers are
// excluded for the duration, so f sees quiescent state. f must not mutate
// the index or retain it past the call.
func (c *ConcurrentIndex) View(f func(Index)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f(c.inner)
}
