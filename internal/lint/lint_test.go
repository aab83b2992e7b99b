package lint_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"sapla/internal/lint"
)

// want is one expectation parsed from a fixture's "// want" comment.
type want struct {
	file    string
	line    int
	raw     string
	re      *regexp.Regexp
	matched bool
}

// quotedRe extracts the quoted regexes of a want comment.
var quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants collects every // want "regex" expectation in the fixture
// directory. A line may carry several quoted regexes for several findings.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, rest, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, m := range quotedRe.FindAllStringSubmatch(rest, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: abs, line: i + 1, raw: m[1], re: re})
			}
		}
	}
	return wants
}

// runFixture loads one testdata package, runs the named checks and matches
// the diagnostics against the fixture's // want comments: every diagnostic
// must match a want on its line, and every want must be matched. It returns
// the program and its diagnostics for further assertions.
func runFixture(t *testing.T, fixture string, checks ...string) (*lint.Program, []lint.Diagnostic) {
	t.Helper()
	analyzers, err := lint.Analyzers(checks...)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lint.Load(".", []string{"./testdata/src/" + fixture})
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(analyzers)
	wants := parseWants(t, filepath.Join("testdata", "src", fixture))

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
	return prog, diags
}

func TestFloatcmp(t *testing.T)    { runFixture(t, "floatcmp", "floatcmp") }
func TestDeterminism(t *testing.T) { runFixture(t, "eval", "determinism") }

// TestDeterminismPqueue pins the analyzer's scope extension to the heap
// package: /pqueue is under the same contract as /eval and /index.
func TestDeterminismPqueue(t *testing.T) { runFixture(t, "pqueue", "determinism") }
func TestErrcheck(t *testing.T)          { runFixture(t, "errcheck", "errcheck") }
func TestCtxflow(t *testing.T)           { runFixture(t, "ctxflow", "ctxflow") }

// TestBuildConstraints pins the loader to the go command's file selection:
// the buildtag fixture's second file repeats its float comparison under
// //go:build ignore, and must be neither loaded nor analyzed.
func TestBuildConstraints(t *testing.T) {
	prog, diags := runFixture(t, "buildtag", "floatcmp")
	if len(diags) != 1 || len(prog.Pkgs) != 1 || len(prog.Pkgs[0].Files) != 1 {
		t.Fatalf("got %d diagnostics and %d packages, expected 1 diagnostic from 1 package of 1 file", len(diags), len(prog.Pkgs))
	}
}

// TestFindingsDeterministic is the byte-stability contract behind the golden
// fixtures: the full analyzer suite over every fixture package (the packages
// with findings) must render identically run after run, regardless of map
// iteration order anywhere in the framework.
func TestFindingsDeterministic(t *testing.T) {
	fixtures := []string{
		"./testdata/src/floatcmp",
		"./testdata/src/eval",
		"./testdata/src/errcheck",
		"./testdata/src/ctxflow",
	}
	analyzers, err := lint.Analyzers()
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		prog, err := lint.Load(".", fixtures)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, d := range prog.Run(analyzers) {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	first := render()
	if first == "" {
		t.Fatal("expected findings from the fixture packages")
	}
	for i := 0; i < 2; i++ {
		if again := render(); again != first {
			t.Fatalf("finding output differs between runs:\n--- first ---\n%s--- run %d ---\n%s", first, i+2, again)
		}
	}
}

// TestDirectiveValidation asserts the malformed-directive diagnostics of the
// directive fixture programmatically: several point at full-line comments
// that cannot carry a trailing want comment.
func TestDirectiveValidation(t *testing.T) {
	analyzers, err := lint.Analyzers("floatcmp")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lint.Load(".", []string{"./testdata/src/directive"})
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(analyzers)

	expect := []struct {
		line    int
		check   string
		message string
	}{
		{11, "directive", "unknown directive //sapla:bogus"},
		{17, "floatcmp", "floating-point == comparison"},
		{17, "directive", "//sapla:floateq needs a reason"},
		// A retired directive is an unknown one; the message lists what is left.
		{21, "directive", "(known: detach, errok, floateq, nondet)"},
	}
	if len(diags) != len(expect) {
		var got []string
		for _, d := range diags {
			got = append(got, d.String())
		}
		t.Fatalf("got %d diagnostics, expected %d:\n%s", len(diags), len(expect), strings.Join(got, "\n"))
	}
	for i, e := range expect {
		d := diags[i]
		if d.Pos.Line != e.line || d.Check != e.check || !strings.Contains(d.Message, e.message) {
			t.Errorf("diagnostic %d: got %s, expected line %d check %s message containing %q",
				i, d, e.line, e.check, e.message)
		}
	}
}

// loadRepo loads every package of the repo once for the tests that walk the
// whole tree: one program for the root module and one for bench/, a module of
// its own that `go list ./...` at the root does not reach.
var loadRepo = sync.OnceValues(func() ([]*lint.Program, error) {
	var progs []*lint.Program
	for _, dir := range []string{"../..", "../../bench"} {
		prog, err := lint.Load(dir, []string{"./..."})
		if err != nil {
			return nil, err
		}
		progs = append(progs, prog)
	}
	return progs, nil
})

// repoRel names path relative to the repo root, with forward slashes, as
// goStatements and lockClasses do.
func repoRel(t *testing.T, path string) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := filepath.Rel(root, path)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.ToSlash(rel)
}

// TestRepoIsClean is the contract the repo itself must keep: every analyzer
// over every package, zero findings. A failure here is a genuine regression
// (or a missing, justified //sapla: annotation).
func TestRepoIsClean(t *testing.T) {
	analyzers, err := lint.Analyzers()
	if err != nil {
		t.Fatal(err)
	}
	progs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range progs {
		for _, d := range prog.Run(analyzers) {
			t.Errorf("%s", d)
		}
	}
}

// goStatements is every go statement in the repo's non-test code, one entry
// per statement as "file:function", each with how its goroutine is joined or
// stopped. The runtime side of each story is tested where the goroutine lives
// (par's tests, the server's shutdown and snapshot-ticker tests, bench's
// smoke run).
var goStatements = []struct{ site, why string }{
	{"internal/par/par.go:Do", "joined by Do's WaitGroup before Do returns"},
	{"internal/server/server.go:New", "snapshotLoop returns on snapStop; Shutdown closes it and waits on snapWG"},
	{"cmd/sapla-serve/main.go:main", "srv.Serve's result is handed back on done, which main receives after Shutdown"},
	{"bench/loadgen/layers.go:layers.run", "Serve's result is received from served in run's deferred drain, after Shutdown"},
	{"bench/loadgen/run.go:runner.round", "closes readerDone, which round receives before it returns"},
	{"bench/loadgen/oracle.go:newOracle", "joined by newOracle's WaitGroup"},
	{"bench/loadgen/child.go:startChild", "the stderr reader ends when the child exits and closes drained, which child.kill receives"},
}

// TestGoStatements holds goroutine lifetime to a reviewed list: the go
// statements in the tree, counted per function, must be exactly those of
// goStatements.
func TestGoStatements(t *testing.T) {
	progs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{} // found minus listed, per site
	for _, g := range goStatements {
		count[g.site]--
	}
	for _, prog := range progs {
		for _, pkg := range prog.Pkgs {
			for _, file := range pkg.Files {
				rel := repoRel(t, prog.Fset.Position(file.Pos()).Filename)
				for _, decl := range file.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if _, ok := n.(*ast.GoStmt); ok {
							count[rel+":"+funcName(fd)]++
						}
						return true
					})
				}
			}
		}
	}
	sites := make([]string, 0, len(count))
	for site := range count {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		switch d := count[site]; {
		case d > 0:
			t.Errorf("%d new go statement(s) in %s: add each to goStatements with how its goroutine is joined or cancelled", d, site)
		case d < 0:
			t.Errorf("%d listed go statement(s) gone from %s: remove them from goStatements", -d, site)
		}
	}
}

// lockClasses is every sync.Mutex / sync.RWMutex struct field in the repo's
// non-test code, one entry per field as "dir.Type.field", with what it
// guards and the classes a goroutine may take while holding it. The declared
// may-take graph must be acyclic: that is the lock order. Whether a guarded
// field is only touched under its mutex is the race detector's check
// (`make race-short` over server, index and wal).
var lockClasses = []struct {
	class, guards string
	mayTake       []string
}{
	{"internal/server.shardState.mu", "the shard's commit protocol — WAL append, then the flat tier's mutation through the index — and reads of flat outside the index lock",
		[]string{"internal/index.ConcurrentIndex.mu", "internal/wal.Store.mu"}},
	{"internal/server.Server.bookMu", "claimed (the IDs of in-flight ingests), the series length n and nextID", nil},
	{"internal/server.Server.httpMu", "httpSrv, set by Serve and read by Shutdown", nil},
	{"internal/index.ConcurrentIndex.mu", "inner: shared for searches, exclusive for mutations", nil},
	{"internal/wal.Store.mu", "the active segment, its counters and the broken/closed state; file operations run under it",
		[]string{"internal/wal.FaultFS.mu", "internal/wal.MemFS.mu"}},
	{"internal/wal.MemFS.mu", "files and their durable/pending bytes", nil},
	{"internal/wal.FaultFS.mu", "the op counter, the armed faults and the crash flag", nil},
	{"bench/loadgen.tally.mu", "attempted, failed, findings and the embedding outcome's probes", nil},
	{"bench/loadgen.child.mu", "tail, appended by the stderr reader and read on failure", nil},
}

// TestLockClasses holds locking to a reviewed list: the mutex struct fields
// in the tree must be exactly those of lockClasses, every class a holder may
// take must be listed, and the may-take graph must have no cycle.
func TestLockClasses(t *testing.T) {
	progs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, prog := range progs {
		for _, pkg := range prog.Pkgs {
			dir := repoRel(t, pkg.Dir)
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					spec, ok := n.(*ast.TypeSpec)
					if !ok {
						return true
					}
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						return false
					}
					for _, field := range st.Fields.List {
						switch types.TypeString(pkg.Info.TypeOf(field.Type), nil) {
						case "sync.Mutex", "sync.RWMutex", "*sync.Mutex", "*sync.RWMutex":
						default:
							continue
						}
						names := []string{"Mutex"} // an embedded mutex is named after its type
						if len(field.Names) > 0 {
							names = names[:0]
							for _, name := range field.Names {
								names = append(names, name.Name)
							}
						}
						for _, name := range names {
							found[dir+"."+spec.Name.Name+"."+name] = true
						}
					}
					return false
				})
			}
		}
	}

	mayTake := map[string][]string{}
	for _, lc := range lockClasses {
		mayTake[lc.class] = lc.mayTake
		if !found[lc.class] {
			t.Errorf("listed lock class %s is gone: remove it from lockClasses", lc.class)
		}
	}
	var classes []string
	for class := range found {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		if _, ok := mayTake[class]; !ok {
			t.Errorf("mutex field %s is not in lockClasses: add it with what it guards and which classes may be taken while it is held", class)
		}
	}
	for _, lc := range lockClasses {
		for _, next := range lc.mayTake {
			if _, ok := mayTake[next]; !ok {
				t.Errorf("%s may take %s, which is not a listed lock class", lc.class, next)
			}
		}
	}

	// Depth-first search over the declared edges; a class met again while
	// still on the path closes a cycle.
	state := map[string]int{} // 0 unvisited, 1 on the path, 2 done
	var path []string
	var visit func(class string)
	visit = func(class string) {
		switch state[class] {
		case 1:
			i := slices.Index(path, class)
			t.Errorf("lock-order cycle in lockClasses: %s", strings.Join(append(path[i:], class), " → "))
			return
		case 2:
			return
		}
		state[class] = 1
		path = append(path, class)
		for _, next := range mayTake[class] {
			visit(next)
		}
		path = path[:len(path)-1]
		state[class] = 2
	}
	for _, lc := range lockClasses {
		visit(lc.class)
	}
}

// funcName renders a declaration as "Name" or "Recv.Name".
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// TestUnknownCheck pins the error for an unknown check name.
func TestUnknownCheck(t *testing.T) {
	if _, err := lint.Analyzers("nope"); err == nil {
		t.Fatal("expected an error for an unknown check name")
	}
}

// TestDiagnosticString pins the canonical rendering of a finding.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Check: "errcheck", Message: "boom"}
	d.Pos.Filename = "a.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, wantS := d.String(), "a.go:3:7: [errcheck] boom"; got != wantS {
		t.Fatalf("got %q, want %q", got, wantS)
	}
}

// TestLoadRejectsMissingDir pins the error paths of a pattern that names no
// package: a missing directory, and a tree pattern that matches nothing (the
// go command skips testdata directories under "...").
func TestLoadRejectsMissingDir(t *testing.T) {
	for _, pattern := range []string{"./testdata/src/definitely-absent", "./testdata/..."} {
		if _, err := lint.Load(".", []string{pattern}); err == nil {
			t.Errorf("%s: expected an error for a pattern that names no package", pattern)
		}
	}
}

func ExampleDiagnostic_String() {
	d := lint.Diagnostic{Check: "floatcmp", Message: "floating-point == comparison"}
	d.Pos.Filename = "dist.go"
	d.Pos.Line = 42
	d.Pos.Column = 9
	fmt.Println(d)
	// Output: dist.go:42:9: [floatcmp] floating-point == comparison
}
