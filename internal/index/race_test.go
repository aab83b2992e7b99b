//go:build race

package index

// raceEnabled reports a -race build. Its allocation counts are not a normal
// build's: sync.Pool drops a share of Puts at random, and the
// instrumentation allocates where the plain build does not.
const raceEnabled = true
