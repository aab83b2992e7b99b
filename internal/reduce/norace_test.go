//go:build !race

package reduce

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
