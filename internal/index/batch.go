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
// The unit of work is one query: each task runs idx.KNN — on a ShardedIndex
// the whole scatter-gather, shard after shard under one running bound — on a
// pooled Workspace and writes into its own slot, so the results are identical
// for any worker count. A batch fills the cores with queries; a single query
// is never split. workers <= 0 means GOMAXPROCS. Searches only read the
// index, so any Index is safe to share.
//
// The first error in query order aborts nothing already in flight but is
// the one returned; out and stats stay valid for the queries that finished.
func BatchKNN(idx Index, queries []dist.Query, k, workers int) ([][]Result, []SearchStats, error) {
	return BatchKNNContext(context.Background(), idx, queries, k, workers)
}

// BatchKNNContext is BatchKNN with cancellation: ctx is re-checked before
// each query is claimed, so a shed or timed-out batch request stops consuming
// CPU after at most one in-flight query per worker — a query that has started
// visits all its shards. A query is answered iff its task ran: when ctx
// expires early the answered queries' out/stats are complete, the others keep
// zero slots (never a partial merge), and the error wraps both
// ErrBatchCanceled and ctx's cause.
func BatchKNNContext(ctx context.Context, idx Index, queries []dist.Query, k, workers int) ([][]Result, []SearchStats, error) {
	out := make([][]Result, len(queries))
	stats := make([]SearchStats, len(queries))
	type outcome struct {
		done bool // the task ran
		err  error
	}
	ran := make([]outcome, len(queries))
	par.Do(ctx, len(queries), workers, func(qi int) {
		// An index's KNN borrows a Workspace from wsPool for this
		// one search and returns a copy of the answer (pooledKNN).
		res, st, err := idx.KNN(queries[qi], k)
		out[qi], stats[qi], ran[qi] = res, st, outcome{true, err}
	})
	answered := 0
	var firstErr error
	for _, r := range ran {
		if !r.done {
			continue // cancelled before the query was claimed: its slot stays zero
		}
		answered++
		if firstErr == nil {
			firstErr = r.err
		}
	}
	if err := ctx.Err(); err != nil && answered < len(queries) {
		return out, stats, fmt.Errorf("%w after %d of %d queries: %w",
			ErrBatchCanceled, answered, len(queries), err)
	}
	return out, stats, firstErr
}
