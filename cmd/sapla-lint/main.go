// Command sapla-lint runs the repo's static analyzers: stdlib-only checks
// that enforce the durability and concurrency contract — mutex discipline on
// shared structs (lockguard), no exact float comparison (floatcmp),
// worker-count-independent evaluation (determinism), no silently dropped
// errors (errcheck), WAL-append-before-acknowledge ordering (walorder),
// context threading (ctxflow), a cycle-free lock-acquisition order
// (lockorder), no arena-backed slices surviving a repack (arenaretain),
// every goroutine joined by its spawner or cancellable (goleak), and no
// request-derived data reaching the index, the WAL or an allocation size
// unvalidated (taintflow). Lock copies are go vet's contract and
// allocation-free hot paths are held by testing.AllocsPerRun tests; neither
// is repeated here.
//
// Usage:
//
//	sapla-lint [-checks lockguard,lockorder,...] [-json] [-json-out FILE] [-sarif FILE] [-timing] [-budget-ms N] [patterns...]
//
// Patterns default to ./... and are module-relative ("./internal/index",
// "./internal/..."). Exit status: 0 clean, 1 findings (or a blown timing
// budget), 2 usage or load failure. Findings print as
// "file:line:col: [check] message"; -json emits a machine-readable report
// on stdout instead, -json-out writes the same report to a file (CI uploads
// it as an artifact), and -sarif writes a SARIF 2.1.0 log for code-scanning
// upload. The JSON report includes wall-clock timing only under -timing, so
// plain -json output is byte-identical across runs; -timing also prints
// per-analyzer cost to stderr, and -budget-ms fails the run when the
// analyzers' total wall-clock cost exceeds the budget.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sapla/internal/lint"
)

// report is the machine-readable output of one run. Timing and TotalMs are
// populated only under -timing: wall-clock figures are the one
// nondeterministic part of the report, and without them the JSON output is
// byte-identical across repeated runs.
type report struct {
	Findings []finding          `json:"findings"`
	Timing   []lint.CheckTiming `json:"timing,omitempty"`
	TotalMs  float64            `json:"total_ms,omitempty"`
	Clean    bool               `json:"clean"`
}

// finding mirrors lint.Diagnostic with a cwd-relative file path.
type finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	checks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	jsonOut := flag.String("json-out", "", "write the JSON report to this file (written even when findings exist)")
	jsonStdout := flag.Bool("json", false, "print the JSON report to stdout instead of text findings")
	sarifOut := flag.String("sarif", "", "write a SARIF 2.1.0 log to this file (written even when findings exist)")
	timing := flag.Bool("timing", false, "print per-analyzer timing to stderr (and include it in JSON reports)")
	budgetMs := flag.Float64("budget-ms", 0, "fail when the analyzers' total wall-clock cost exceeds this many milliseconds (0 = no budget)")
	flag.Parse()

	analyzers, err := lint.Analyzers(splitChecks(*checks)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *list {
		all, _ := lint.Analyzers()
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	prog, err := lint.Load(".", flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, timings := prog.RunTimed(analyzers)

	cwd, _ := os.Getwd()
	rep := report{Findings: []finding{}, Clean: len(diags) == 0}
	var totalMs float64
	for _, t := range timings {
		totalMs += t.Millis
	}
	if *timing {
		rep.Timing = timings
		rep.TotalMs = totalMs
	}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, finding{
			File:    relPath(cwd, d.Pos.Filename),
			Line:    d.Pos.Line,
			Column:  d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}

	if *timing {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "sapla-lint: %-12s %8.1fms %4d finding(s)\n", t.Check, t.Millis, t.Findings)
		}
		fmt.Fprintf(os.Stderr, "sapla-lint: %-12s %8.1fms\n", "total", totalMs)
	}
	if *sarifOut != "" {
		data, err := lint.SARIF(analyzers, diags, cwd)
		if err == nil {
			err = os.WriteFile(*sarifOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sapla-lint: write %s: %v\n", *sarifOut, err)
			os.Exit(2)
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sapla-lint: write %s: %v\n", *jsonOut, err)
			os.Exit(2)
		}
	}
	// The budget gates analyzer cost only (package loading is the compiler's
	// bill, not the dataflow engine's); a blown budget fails the run even
	// when the findings are clean.
	budgetBlown := *budgetMs > 0 && totalMs > *budgetMs
	if budgetBlown {
		fmt.Fprintf(os.Stderr, "sapla-lint: timing budget exceeded: %.1fms of analysis > %.1fms budget\n", totalMs, *budgetMs)
	}

	if *jsonStdout {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(string(data))
		if len(diags) > 0 || budgetBlown {
			os.Exit(1)
		}
		return
	}

	if len(diags) == 0 {
		if budgetBlown {
			os.Exit(1)
		}
		return
	}
	for _, f := range rep.Findings {
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Column, f.Check, f.Message)
	}
	fmt.Fprintf(os.Stderr, "sapla-lint: %d finding(s)\n", len(diags))
	os.Exit(1)
}

// relPath renders file relative to cwd when it lies under it.
func relPath(cwd, file string) string {
	if cwd == "" {
		return file
	}
	if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}

// splitChecks parses the -checks flag.
func splitChecks(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, c := range strings.Split(s, ",") {
		if c = strings.TrimSpace(c); c != "" {
			out = append(out, c)
		}
	}
	return out
}
