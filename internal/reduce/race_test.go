//go:build race

package reduce

// raceEnabled reports a -race build, under which the O(n³) window scan that
// TestAPLAErrorTableMatchesScan compares against runs about 50× slower.
const raceEnabled = true
