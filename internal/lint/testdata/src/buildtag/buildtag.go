// Package buildtag pins the loader to the go command's file selection:
// ignored.go repeats this comparison under //go:build ignore.
package buildtag

func equal(a, b float64) bool {
	return a == b // want "floating-point == comparison"
}
