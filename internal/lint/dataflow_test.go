package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// flowTestState is the smallest useful lattice: a may-set of names, joined by
// union. It exercises the engine's control-flow handling without dragging in
// go/types — the statements in the test bodies are interpreted by convention:
// mark("x") adds x, clr("x") removes it, chk("x") records whether x is in the
// set at that program point (conditions are leaves too, so a chk in a loop
// condition observes once per fixpoint round).
type flowTestState struct {
	vars map[string]bool
}

func (s *flowTestState) Clone() flowState {
	c := &flowTestState{vars: make(map[string]bool, len(s.vars))}
	for k := range s.vars {
		c.vars[k] = true
	}
	return c
}

func (s *flowTestState) Join(o flowState) bool {
	changed := false
	for k := range o.(*flowTestState).vars {
		if !s.vars[k] {
			s.vars[k] = true
			changed = true
		}
	}
	return changed
}

// runFlowBody parses body as a function body, runs the engine over it with
// the mark/clr/chk interpretation, and returns the observations in program
// order plus the exit path.
func runFlowBody(t *testing.T, body string) ([]string, *flowPath) {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "flow.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	fn := file.Decls[0].(*ast.FuncDecl)

	var obs []string
	step := func(n ast.Node, st flowState) {
		s := st.(*flowTestState)
		var call *ast.CallExpr
		switch x := n.(type) {
		case *ast.ExprStmt:
			call, _ = x.X.(*ast.CallExpr)
		case *ast.CallExpr:
			call = x
		}
		if call == nil {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || len(call.Args) != 1 {
			return
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok {
			return
		}
		name := strings.Trim(lit.Value, `"`)
		switch id.Name {
		case "mark":
			s.vars[name] = true
		case "clr":
			delete(s.vars, name)
		case "chk":
			obs = append(obs, fmt.Sprintf("%s=%v", name, s.vars[name]))
		}
	}

	eng := &flowEngine{transfer: step}
	p := eng.run(fn.Body, &flowTestState{vars: map[string]bool{}})
	return obs, p
}

func TestFlowEngine(t *testing.T) {
	tests := []struct {
		name     string
		body     string
		wantObs  []string
		wantDone bool
	}{
		{
			name: "if without else joins the not-taken path",
			body: `mark("a")
if cond {
	clr("a")
}
chk("a")`,
			// The not-taken path still holds a, so the union does too.
			wantObs: []string{"a=true"},
		},
		{
			name: "if/else joins both branches",
			body: `mark("a")
if cond {
	clr("a")
	mark("b")
} else {
	clr("a")
	mark("c")
}
chk("a")
chk("b")
chk("c")`,
			// Both branches clear a; b and c each survive via the union.
			wantObs: []string{"a=false", "b=true", "c=true"},
		},
		{
			name: "returned branch contributes nothing to the join",
			body: `if cond {
	mark("b")
	return
}
chk("b")`,
			wantObs: []string{"b=false"},
		},
		{
			name: "both branches returning terminates the path",
			body: `if cond {
	return
} else {
	return
}
chk("x")`,
			wantObs:  nil,
			wantDone: true,
		},
		{
			name: "loop body facts reach the condition by fixpoint",
			// Pre-loop the condition sees x unset; after the first round's
			// join the body's mark is visible, the second round changes
			// nothing and the loop is stable.
			body: `for chk("x") {
	mark("x")
}
chk("x")`,
			wantObs: []string{"x=false", "x=true", "x=true", "x=true"},
		},
		{
			name: "break drops the path conservatively",
			body: `for {
	mark("a")
	break
}
chk("a")`,
			wantObs: []string{"a=false"},
		},
		{
			name: "switch without default keeps the zero-match path",
			body: `mark("z")
switch {
case c1:
	clr("z")
case c2:
	clr("z")
}
chk("z")`,
			// No default: the zero-match path still holds z.
			wantObs: []string{"z=true"},
		},
		{
			name: "switch with default replaces the fallthrough path",
			body: `mark("z")
switch {
case c1:
	clr("z")
default:
	clr("z")
}
chk("z")`,
			wantObs: []string{"z=false"},
		},
		{
			name: "select clause always runs",
			body: `mark("z")
select {
case <-ch:
	clr("z")
}
chk("z")`,
			// A comm clause counts as a default: some clause always runs,
			// so the pre-select state does not survive on its own.
			wantObs: []string{"z=false"},
		},
		{
			name: "goto drops its path at the join",
			body: `mark("a")
if cond {
	clr("a")
	goto out
}
chk("a")
out:
chk("b")`,
			// The goto path terminates and contributes nothing, so the
			// fall-through keeps a; the labeled statement after the jump
			// target is still walked in program order.
			wantObs: []string{"a=true", "b=false"},
		},
		{
			name: "labeled break in a nested loop drops only that path",
			body: `mark("z")
outer:
for chk("z") {
	for {
		clr("z")
		break outer
	}
}
chk("z")`,
			// The inner path clears z and then terminates at the labeled
			// break, so its clear never reaches the outer join: one round
			// is stable, and the condition observes z on entry and at the
			// end of that round.
			wantObs: []string{"z=true", "z=true", "z=true"},
		},
		{
			name: "labeled continue drops the path like break",
			body: `loop:
for {
	mark("a")
	continue loop
}
chk("a")`,
			// Every body path terminates at the continue; the loop is stable
			// after one round and the exit keeps the pre-loop state.
			wantObs: []string{"a=false"},
		},
		{
			name: "select with default inside a loop keeps the skip path",
			body: `mark("z")
for chk("z") {
	select {
	case <-ch:
		clr("z")
	default:
	}
}
chk("z")`,
			// The default clause preserves z, so the clause union keeps it
			// on every round: the loop converges immediately with the fact
			// intact.
			wantObs: []string{"z=true", "z=true", "z=true"},
		},
		{
			name: "range operand re-read each round sees body facts",
			body: `for range chk("r") {
	mark("r")
}
chk("r")`,
			wantObs: []string{"r=false", "r=true", "r=true", "r=true"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			obs, p := runFlowBody(t, tt.body)
			if fmt.Sprint(obs) != fmt.Sprint(tt.wantObs) {
				t.Errorf("observations:\n got %v\nwant %v", obs, tt.wantObs)
			}
			if p.done != tt.wantDone {
				t.Errorf("exit done = %v, want %v", p.done, tt.wantDone)
			}
		})
	}
}
