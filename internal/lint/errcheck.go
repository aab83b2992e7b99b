package lint

import (
	"go/ast"
	"go/types"
)

// ErrcheckAnalyzer flags calls whose error result is silently dropped: a
// call in statement position whose (last) result is an error. A service that
// promises durable ingest cannot ignore an Encode or Close failure. Three
// escapes exist, in order of preference: handle the error; assign it to _
// (an explicit, reviewable discard); or annotate //sapla:errok <reason> for
// cases where ignoring is the designed behavior (e.g. writing a response
// body after the client hung up).
//
// fmt print calls and methods on strings.Builder / bytes.Buffer are exempt:
// their error results only reflect the destination writer, and the in-memory
// destinations cannot fail.
var ErrcheckAnalyzer = &Analyzer{
	Name: "errcheck",
	Run:  runErrcheck,
}

func runErrcheck(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(info, call) || isErrcheckExempt(info, call) {
				return true
			}
			p.Reportf(call.Pos(), "error result of %s is dropped; handle it, assign to _, or annotate //sapla:errok",
				calleeName(call))
			return true
		})
	}
}

// returnsError reports whether the call's only or last result is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	var last types.Type
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() == 0 {
			return false
		}
		last = t.At(t.Len() - 1).Type()
	default:
		last = t
	}
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// isErrcheckExempt exempts fmt print calls and methods on the in-memory
// writers strings.Builder / bytes.Buffer.
func isErrcheckExempt(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			return pn.Imported().Path() == "fmt"
		}
	}
	if s, ok := info.Selections[sel]; ok {
		return isInMemoryWriter(s.Recv())
	}
	return false
}

// isInMemoryWriter reports whether t is strings.Builder or bytes.Buffer
// (possibly behind a pointer).
func isInMemoryWriter(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

// calleeName renders the called expression for the message.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
