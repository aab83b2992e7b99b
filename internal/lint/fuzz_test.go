package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"sapla/internal/lint"
)

// FuzzLintSource drives the full loader/analyzer pipeline over arbitrary Go
// source: whatever the fuzzer produces, the driver must either reject it
// with a parse/typecheck error or analyze it without panicking. The seeds
// steer the corpus toward the constructs the flow-sensitive walks have to
// survive — closures, channel operations, directives, labeled jumps.
func FuzzLintSource(f *testing.F) {
	f.Add("package p\n\nfunc f() {}\n")
	f.Add("package p\n\nfunc f() { go func() { for {} }() }\n")
	f.Add("package p\n\n//sapla:bogus reason\nfunc f() {}\n")
	f.Add("package p\n\nfunc f() { ch := make(chan int); ch <- 1; for range ch {} }\n")
	f.Add("package p\n\nimport \"sync\"\n\nfunc f() { var wg sync.WaitGroup; wg.Add(1); go func() { wg.Done() }(); wg.Wait() }\n")
	f.Add("package p\n\nfunc f(xs []int) {\nloop:\n\tfor _, x := range xs {\n\t\tif x == 0 {\n\t\t\tcontinue loop\n\t\t}\n\t\tgoto done\n\t}\ndone:\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fuzzmod\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		prog, err := lint.Load(dir, []string{"./..."})
		if err != nil {
			return // rejected input: parse or typecheck failure
		}
		analyzers, err := lint.Analyzers()
		if err != nil {
			t.Fatal(err)
		}
		prog.Run(analyzers)
	})
}
