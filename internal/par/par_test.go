package par

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestRunIndexedCoversAllUnits: the pool must call every index exactly once
// for worker counts below, at, and above the unit count.
func TestRunIndexedCoversAllUnits(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 50} {
		const n = 23
		hits := make([]int32, n)
		Do(context.Background(), n, workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: unit %d ran %d times", workers, i, h)
			}
		}
	}
	Do(context.Background(), 0, 4, func(i int) { t.Fatal("fn called for n=0") })
}

// cancelAfter is a context that reports cancellation from its limit-th Err
// call on.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	limit int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.limit {
		return context.Canceled
	}
	return nil
}

// TestDoCancel: ctx is re-checked before every claim, so after it reports
// cancelled each worker makes one more Err call and claims nothing.
func TestDoCancel(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		ctx := &cancelAfter{Context: context.Background(), limit: 5}
		var ran atomic.Int64
		Do(ctx, 64, workers, func(int) { ran.Add(1) })
		if got := ran.Load(); got != 4 {
			t.Errorf("workers=%d: %d calls ran, want the 4 claimed before the cancel", workers, got)
		}
		if got := ctx.calls.Load(); got > int64(4+workers) {
			t.Errorf("workers=%d: ctx checked %d times, want at most %d", workers, got, 4+workers)
		}
	}
}

// TestDoSerialOnCaller: with one worker fn runs on the calling goroutine —
// no goroutine, counter or WaitGroup is allocated.
func TestDoSerialOnCaller(t *testing.T) {
	ctx := context.Background()
	sum := 0
	fn := func(i int) { sum += i }
	if allocs := testing.AllocsPerRun(100, func() { Do(ctx, 8, 1, fn) }); allocs != 0 {
		t.Errorf("Do with one worker allocates %v times, want 0", allocs)
	}
	if sum != 101*28 {
		t.Errorf("sum %d: fn did not run once per index per call", sum)
	}
}
