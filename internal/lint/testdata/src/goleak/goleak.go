// Package goleak exercises the goleak analyzer: every go statement must be
// joined by its spawner (a WaitGroup Done/Wait pair or a channel handoff
// received back in the spawner) or observe a cancellation signal, and
// detachment propagates through spawn-helper wrappers via EffSpawnDetached.
package goleak

import (
	"context"
	"sync"
)

func tick() {}

// launchDetached spawns a worker nothing ever collects: no join, no signal.
func launchDetached() {
	go func() { // want "goroutine is neither joined by its spawner .* nor observes a cancellation signal"
		for {
			tick()
		}
	}()
}

// spin loops forever and never looks at any cancellation signal.
func spin() {
	for {
	}
}

// launchSpin spawns the unbounded loop as a static callee: the same finding
// through the callee's summary instead of a literal's body.
func launchSpin() {
	go spin() // want "goroutine running spin is neither joined by its spawner .* nor observes a cancellation signal"
}

// launchShortDetached leaks even without a loop: the spawner has no way to
// know the goroutine finished.
func launchShortDetached() {
	go tickTwice() // want "goroutine running tickTwice is neither joined by its spawner .* nor observes a cancellation signal"
}

func tickTwice() {
	tick()
	tick()
}

// launchJoined is the fork-join idiom: the goroutine signals Done, the
// spawner Waits on the same WaitGroup.
func launchJoined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick()
	}()
	wg.Wait()
}

// launchHandoff is the channel-handoff idiom: the goroutine sends its result
// and the spawner receives it back.
func launchHandoff() int {
	done := make(chan int, 1)
	go func() {
		done <- 42
	}()
	return <-done
}

// worker signals completion on its WaitGroup parameter.
func worker(wg *sync.WaitGroup) {
	defer wg.Done()
	tick()
}

// launchParamJoined joins through the call site: worker's wg.Done() on its
// own parameter folds onto the caller's WaitGroup argument.
func launchParamJoined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go worker(&wg)
	wg.Wait()
}

// launchCancellable is exempt without a join: the goroutine observes a stop
// channel, so shutdown can reach it.
func launchCancellable(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				tick()
			}
		}
	}()
}

// watchCtx observes ctx.Done transitively; the signal lives one call deep.
func watchCtx(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// launchCtxLoop is exempt: cancellation rides the effect summaries through
// watchCtx.
func launchCtxLoop(ctx context.Context) {
	go func() {
		for {
			if watchCtx(ctx) {
				return
			}
		}
	}()
}

// startDaemon launches a designed process-lifetime loop; the directive both
// silences the finding and keeps EffSpawnDetached from tainting callers.
func startDaemon() {
	go func() { //sapla:daemon fixture model of a designed process-lifetime ticker
		for {
			tick()
		}
	}()
}

// launchViaDaemonHelper is clean: the joined goroutine's call tree contains
// only the escaped daemon spawn, which does not propagate.
func launchViaDaemonHelper() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		startDaemon()
	}()
	wg.Wait()
}

// spawnLeak is a spawn-helper that leaks: its own go statement is detached
// (flagged directly) and the helper is marked EffSpawnDetached.
func spawnLeak() {
	go func() { // want "goroutine is neither joined by its spawner .* nor observes a cancellation signal"
		for {
			tick()
		}
	}()
}

// launchTransitive joins its own goroutine, but that goroutine runs a helper
// that leaks workers — the detachment propagates to the spawn site.
func launchTransitive() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // want "goroutine transitively spawns a detached goroutine through a helper in its call tree"
		defer wg.Done()
		spawnLeak()
	}()
	wg.Wait()
}

// helperJoined is a spawn-helper whose own goroutine is collected; calling it
// taints nobody.
func helperJoined() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick()
	}()
	wg.Wait()
}

// launchTransitiveClean is fully clean: the joined goroutine's helper joins
// its own workers too.
func launchTransitiveClean() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		helperJoined()
	}()
	wg.Wait()
}

// launchOpaque spawns a plain function value: opaque, conservatively silent.
func launchOpaque(f func()) {
	go f()
}
