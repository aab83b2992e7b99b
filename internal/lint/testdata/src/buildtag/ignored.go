//go:build ignore

package buildtag

// The go command leaves this file out of the package, so the loader must
// too: its comparison is not a finding.
func equalIgnored(a, b float64) bool {
	return a == b
}
