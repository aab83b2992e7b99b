// Package lint is the repo's static-analysis driver: a stdlib-only
// (go/parser, go/ast, go/types, go/token — no x/tools dependency) analysis
// framework plus four syntactic, per-function analyzers — exact float
// comparison, deterministic evaluation output, dropped errors, detached
// contexts — that run inside `go test ./...` (TestRepoIsClean) instead of
// regression signals that fire after the fact. Contracts a cheaper tool
// already holds are not repeated here: go vet guards lock copies,
// testing.AllocsPerRun tests guard the zero-allocation hot paths, goroutine
// lifetime is a reviewed list of go statements (TestGoStatements) plus the
// runtime join tests of the packages that spawn them, locking is a reviewed
// list of lock classes (TestLockClasses) plus the race detector, and the
// server's WAL ordering and request bounds are its own runtime tests
// (TestServerWriteInvisibleUntilLogged, FuzzHandlers).
//
// The driver takes its packages from `go list` (see Load): the go command
// resolves the patterns, selects each package's files and compiles the
// export data its imports are read from, and the driver parses and
// type-checks only the named packages. It runs each Analyzer over every one
// of them and reports findings as "file:line:col: [check] message". Intentional exceptions are annotated in
// the source with //sapla: directives:
//
//	//sapla:floateq <reason>   suppresses a floatcmp finding on its line
//	//sapla:nondet <reason>    suppresses a determinism finding on its line
//	//sapla:errok <reason>     suppresses an errcheck finding on its line
//	//sapla:detach <reason>    suppresses a ctxflow finding on its line (a
//	                           deliberately detached context)
//
// Suppression directives require a reason: an annotation that does not say
// why the exception is sound is itself a finding. A directive trailing code
// applies to its own line; a directive alone on a line applies to the next
// line.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the finding in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check, invoked once per loaded package.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) run. Analyzers report through Reportf;
// the pass applies //sapla: suppression directives before recording.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Fset returns the program-wide file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// Reportf records a finding at pos unless a matching suppression directive
// covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	if dir, ok := suppressDirective[p.Analyzer.Name]; ok {
		if p.Prog.suppressed(dir, position.Filename, position.Line) {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Directive names, each a per-line suppression.
const (
	DirFloatEq = "floateq"
	DirNonDet  = "nondet"
	DirErrOK   = "errok"
	DirDetach  = "detach"
)

// suppressDirective maps an analyzer to the directive that silences it.
var suppressDirective = map[string]string{
	"floatcmp":    DirFloatEq,
	"determinism": DirNonDet,
	"errcheck":    DirErrOK,
	"ctxflow":     DirDetach,
}

// knownDirectives is every accepted //sapla: directive; each requires a
// reason.
var knownDirectives = map[string]bool{
	DirFloatEq: true,
	DirNonDet:  true,
	DirErrOK:   true,
	DirDetach:  true,
}

// directive is one parsed //sapla: comment.
type directive struct {
	name   string
	reason string
	pos    token.Pos
	// line the directive applies to (its own line when trailing code, the
	// next line when alone on a line).
	appliesTo int
}

// parseDirectives extracts every //sapla: directive from a file. src is the
// file's raw bytes, used to decide whether a directive trails code.
func parseDirectives(fset *token.FileSet, file *ast.File, src []byte) []directive {
	var out []directive
	for _, group := range file.Comments {
		for _, c := range group.List {
			rest, ok := strings.CutPrefix(c.Text, "//sapla:")
			if !ok {
				continue
			}
			name, reason, _ := strings.Cut(rest, " ")
			pos := fset.Position(c.Pos())
			d := directive{
				name:      name,
				reason:    strings.TrimSpace(reason),
				pos:       c.Pos(),
				appliesTo: pos.Line,
			}
			if !trailsCode(src, pos) {
				d.appliesTo = pos.Line + 1
			}
			out = append(out, d)
		}
	}
	return out
}

// trailsCode reports whether anything other than whitespace precedes the
// position on its line.
func trailsCode(src []byte, pos token.Position) bool {
	// Walk back from the comment's byte offset to the preceding newline.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return false
		case ' ', '\t', '\r':
			continue
		default:
			return true
		}
	}
	return false
}

// suppressed reports whether a directive of the given name covers file:line.
func (prog *Program) suppressed(name, file string, line int) bool {
	return prog.suppress[suppressKey{name: name, file: file, line: line}]
}

type suppressKey struct {
	name string
	file string
	line int
}

// indexDirectives builds the suppression index and validates directive use,
// reporting malformed directives under the "directive" check.
func (prog *Program) indexDirectives() []Diagnostic {
	var diags []Diagnostic
	prog.suppress = make(map[suppressKey]bool)
	known := make([]string, 0, len(knownDirectives)) // for the unknown-directive message
	for name := range knownDirectives {
		known = append(known, name)
	}
	sort.Strings(known)
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			src := prog.sources[prog.Fset.Position(file.Pos()).Filename]
			for _, d := range parseDirectives(prog.Fset, file, src) {
				pos := prog.Fset.Position(d.pos)
				if !knownDirectives[d.name] {
					diags = append(diags, Diagnostic{
						Pos:   pos,
						Check: "directive",
						Message: fmt.Sprintf("unknown directive //sapla:%s (known: %s)",
							d.name, strings.Join(known, ", ")),
					})
					continue
				}
				if d.reason == "" {
					diags = append(diags, Diagnostic{
						Pos:   pos,
						Check: "directive",
						Message: fmt.Sprintf("//sapla:%s needs a reason: say why the exception is sound",
							d.name),
					})
					continue
				}
				prog.suppress[suppressKey{name: d.name, file: pos.Filename, line: d.appliesTo}] = true
			}
		}
	}
	return diags
}

// Analyzers returns the analyzers with the given names, or every analyzer
// when no names are given. Unknown names are an error naming the valid set.
func Analyzers(names ...string) ([]*Analyzer, error) {
	all := []*Analyzer{
		FloatcmpAnalyzer,
		DeterminismAnalyzer,
		ErrcheckAnalyzer,
		CtxflowAnalyzer,
	}
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	valid := make([]string, 0, len(all))
	for _, a := range all {
		byName[a.Name] = a
		valid = append(valid, a.Name)
	}
	sort.Strings(valid)
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (valid: %s)", n, strings.Join(valid, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Run validates //sapla: directives and runs each analyzer over every
// package, returning findings sorted by position.
func (prog *Program) Run(analyzers []*Analyzer) []Diagnostic {
	diags := prog.indexDirectives()
	for _, a := range analyzers {
		for _, pkg := range prog.Pkgs {
			a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	// Drop exact duplicates (a write under nested map ranges is seen once per
	// enclosing loop).
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}
