package index

import (
	"context"
	"errors"
	"fmt"

	"sapla/internal/dist"
	"sapla/internal/par"
)

// ErrBatchCanceled is wrapped by the error BatchKNNContext returns when its
// context expires before every query has been answered. The outputs for
// queries that did complete stay valid; unfinished slots are zero.
var ErrBatchCanceled = errors.New("index: batch k-NN canceled")

// BatchKNN answers many k-NN queries over one index concurrently on par.Do.
// The unit of work is one (query, part): a ShardedIndex with more than one
// shard contributes its shards as parts, so one slow shard of one query never
// idles a worker and a batch fills the cores even with fewer queries than
// workers; every other index is its own single part. Each task searches on a
// pooled Workspace and writes into its own slot, and multi-part queries are
// merged afterwards under the canonical (distance, ID) order — the results
// are identical for any worker count and any shard count. workers <= 0 means
// GOMAXPROCS. Searches only read the index, so any Index is safe to share.
//
// The first error in query order aborts nothing already in flight but is
// the one returned; out and stats stay valid for the queries that finished.
func BatchKNN(idx Index, queries []dist.Query, k, workers int) ([][]Result, []SearchStats, error) {
	return BatchKNNContext(context.Background(), idx, queries, k, workers)
}

// searchParts returns the shards of a multi-shard ShardedIndex, and nil for
// every other index: it is its own single part.
func searchParts(idx Index) []*ConcurrentIndex {
	if sh, ok := idx.(*ShardedIndex); ok && len(sh.shards) > 1 {
		return sh.shards
	}
	return nil
}

// BatchKNNContext is BatchKNN with cancellation: ctx is re-checked before
// each task is claimed, so a shed or timed-out batch request stops consuming
// CPU after at most one in-flight search per worker. A query counts as
// answered only when all its parts ran; when ctx expires early the answered
// queries' out/stats stay valid, the others keep zero slots, and the error
// wraps both ErrBatchCanceled and ctx's cause.
func BatchKNNContext(ctx context.Context, idx Index, queries []dist.Query, k, workers int) ([][]Result, []SearchStats, error) {
	shards := searchParts(idx)
	parts := max(1, len(shards))
	tasks := len(queries) * parts
	res := make([][]Result, tasks) // slot t answers query t/parts on part t%parts
	stats := make([]SearchStats, tasks)
	ran := make([]struct {
		done bool
		err  error
	}, tasks)
	par.Do(ctx, tasks, workers, func(t int) {
		part := idx
		if shards != nil {
			part = shards[t%parts]
		}
		// A WorkspaceSearcher's KNN borrows a Workspace from wsPool for this
		// one search and returns a copy of the answer (pooledKNN).
		res[t], stats[t], ran[t].err = part.KNN(queries[t/parts], k)
		ran[t].done = true
	})

	// Gather. With one part the part's answer is the query's; with several,
	// the parts' top-k are merged into the query's top-k.
	out, qstats := res, stats
	var merge *Workspace
	if shards != nil {
		out, qstats = make([][]Result, len(queries)), make([]SearchStats, len(queries))
		merge = wsPool.Get().(*Workspace)
		defer wsPool.Put(merge)
	}
	answered := 0
	var firstErr error
	for qi := range queries {
		lo, hi := qi*parts, (qi+1)*parts
		all, qerr := true, error(nil)
		for _, r := range ran[lo:hi] {
			all = all && r.done
			if qerr == nil {
				qerr = r.err
			}
		}
		if !all {
			continue // cancelled before every part ran: the slots stay zero
		}
		answered++
		if firstErr == nil {
			firstErr = qerr
		}
		if shards == nil {
			continue
		}
		merge.cand = merge.cand[:0]
		for t := lo; t < hi; t++ {
			addStats(&qstats[qi], stats[t])
			merge.cand = append(merge.cand, res[t]...)
		}
		if qerr != nil {
			continue
		}
		if best := mergeTopK(merge, k, merge.cand); len(best) > 0 {
			out[qi] = append([]Result(nil), best...)
		}
	}
	if err := ctx.Err(); err != nil && answered < len(queries) {
		return out, qstats, fmt.Errorf("%w after %d of %d queries: %w",
			ErrBatchCanceled, answered, len(queries), err)
	}
	return out, qstats, firstErr
}
