package index

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sapla/internal/dist"
)

// ErrBatchCanceled is wrapped by the error BatchKNNContext returns when its
// context expires before every query has been answered. The outputs for
// queries that did complete stay valid; unfinished slots are zero.
var ErrBatchCanceled = errors.New("index: batch k-NN canceled")

// BatchKNN answers many k-NN queries over one index concurrently. Queries
// are claimed from a shared atomic counter (work stealing, so skewed query
// costs don't idle workers), each worker owns one reusable Workspace, and
// every query writes its answers and statistics into its own output slot —
// the results are therefore identical for any worker count. workers <= 0
// means GOMAXPROCS. Searches only read the index, so any Index is safe to
// share; indexes implementing WorkspaceSearcher are searched
// allocation-free apart from the per-query result copy.
//
// The first error in query order aborts nothing already in flight but is
// the one returned; out and stats stay valid for the queries that finished.
func BatchKNN(idx Index, queries []dist.Query, k, workers int) ([][]Result, []SearchStats, error) {
	return BatchKNNContext(context.Background(), idx, queries, k, workers)
}

// BatchKNNContext is BatchKNN with cancellation: workers re-check ctx
// before claiming each query, so a shed or timed-out batch request stops
// consuming CPU after at most one in-flight query per worker. When ctx
// expires early the answered prefix of out/stats stays valid and the error
// wraps both ErrBatchCanceled and ctx's cause.
func BatchKNNContext(ctx context.Context, idx Index, queries []dist.Query, k, workers int) ([][]Result, []SearchStats, error) {
	// A multi-shard index fans out at (query, shard) granularity instead of
	// whole queries, so the pool stays busy even when queries are fewer than
	// workers; the per-query merges reproduce the single-shard answers.
	if sh, ok := idx.(*ShardedIndex); ok && sh.NumShards() > 1 {
		return sh.batchKNN(ctx, queries, k, workers)
	}
	out := make([][]Result, len(queries))
	stats := make([]SearchStats, len(queries))
	if len(queries) == 0 {
		return out, stats, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}

	errs := make([]error, len(queries))
	ws, _ := idx.(WorkspaceSearcher)
	var next atomic.Int64
	var done atomic.Int64
	work := func() {
		var scratch *Workspace
		if ws != nil {
			scratch = wsPool.Get().(*Workspace)
			defer wsPool.Put(scratch)
		}
		for {
			if ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= len(queries) {
				return
			}
			if ws != nil {
				res, st, err := ws.KNNWith(scratch, queries[i], k)
				if len(res) > 0 {
					out[i] = make([]Result, len(res))
					copy(out[i], res)
				}
				stats[i], errs[i] = st, err
			} else {
				out[i], stats[i], errs[i] = idx.KNN(queries[i], k)
			}
			done.Add(1)
		}
	}
	if workers == 1 {
		work() // a single query, or a serial batch: nothing to hand to another goroutine
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	if err := ctx.Err(); err != nil && int(done.Load()) < len(queries) {
		return out, stats, fmt.Errorf("%w after %d of %d queries: %w",
			ErrBatchCanceled, done.Load(), len(queries), err)
	}
	for _, err := range errs {
		if err != nil {
			return out, stats, err
		}
	}
	return out, stats, nil
}
