package lint_test

import (
	"os"
	"path/filepath"
	"testing"

	"sapla/internal/lint"
)

// FuzzLintSource drives the parse, type-check and analyzer pipeline over
// arbitrary Go source: whatever the fuzzer produces, the driver must either
// reject it with a parse/typecheck error or analyze it without panicking.
// The source is checked as an eval package, inside the determinism
// analyzer's scope, so all four analyzers see it; the seeds steer the corpus
// toward what each one and the directive parser look at. It goes through
// CheckFile rather than Load, so an input starts no go command.
func FuzzLintSource(f *testing.F) {
	f.Add("package eval\n\nfunc f() {}\n")
	f.Add("package eval\n\nfunc eq(a, b float64) bool { return a == b }\n")
	f.Add("package eval\n\nimport \"errors\"\n\nfunc fail() error { return errors.New(\"x\") }\n\nfunc f() { fail() }\n")
	f.Add("package eval\n\nimport \"context\"\n\nfunc g(ctx context.Context) {}\n\nfunc f(ctx context.Context) { g(context.Background()) }\n")
	f.Add("package eval\n\n//sapla:bogus reason\nfunc f(a, b float64) bool {\n\treturn a == b //sapla:floateq\n}\n")
	f.Add("package eval\n\nimport \"time\"\n\nfunc f(m map[int]float64) (xs []float64, s float64) {\n\t_ = time.Now()\n\tfor _, v := range m {\n\t\txs = append(xs, v)\n\t\ts += v\n\t}\n\treturn\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		filename := filepath.Join(t.TempDir(), "eval.go")
		if err := os.WriteFile(filename, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		prog, err := lint.CheckFile("fuzzmod/eval", filename)
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
