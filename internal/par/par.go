// Package par is the repo's one fan-out: every "run fn(i) on some goroutines
// and wait" in the server, the index, the WAL and the experiments is par.Do.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) for every i in [0, n) on up to workers goroutines and
// returns when every started call has returned. workers <= 0 means
// GOMAXPROCS, and never more than n run. Indices are claimed in increasing
// order from one shared counter (work stealing: a slow index never idles the
// other workers), and ctx.Err() is re-checked before every claim, so a
// cancelled ctx costs at most the one call each worker is in. One worker is
// the caller's goroutine: with one worker Do starts no goroutine at all.
//
// Determinism contract: fn writes its results into per-index slots and the
// caller folds the slots in index order afterwards, which fixes the error
// reported and the floating-point accumulation order for any worker count.
func Do(ctx context.Context, n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
