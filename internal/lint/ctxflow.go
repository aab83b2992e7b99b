package lint

import (
	"go/ast"
	"go/types"
)

// CtxflowAnalyzer enforces context threading on the serving path: a function
// that takes a context.Context must pass it on. Handing context.Background()
// or context.TODO() to a callee that accepts a context silently detaches the
// callee from the caller's deadline and cancellation. Deliberate detachment
// (a background task that must outlive the request) carries
// //sapla:detach <reason>. Goroutine lifetime is not this analyzer's
// contract: every go statement is on the reviewed list in TestGoStatements.
var CtxflowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Run:  runCtxflow,
}

func runCtxflow(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !funcTakesContext(info, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					checkDroppedContext(p, info, call)
				}
				return true
			})
		}
	}
}

// funcTakesContext reports whether the function declares a context.Context
// parameter.
func funcTakesContext(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkDroppedContext flags context.Background()/context.TODO() arguments
// inside a function that has a context of its own.
func checkDroppedContext(p *Pass, info *types.Info, call *ast.CallExpr) {
	for _, arg := range call.Args {
		name := freshContextCall(info, arg)
		if name == "" {
			continue
		}
		callee := "the callee"
		if fn := staticCallee(info, call); fn != nil {
			callee = fn.Name()
		} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			callee = sel.Sel.Name
		}
		p.Reportf(arg.Pos(),
			"context.%s passed to %s inside a function that has its own context; thread the caller's ctx so cancellation propagates",
			name, callee)
	}
}

// staticCallee resolves a call to the *types.Func it statically invokes:
// package-level functions and concrete methods resolve; interface methods,
// function values and builtins do not.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				return nil
			}
			return fn
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // qualified cross-package call
		}
	}
	return nil
}

// freshContextCall matches context.Background() / context.TODO(), returning
// the function name ("" for anything else).
func freshContextCall(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "context" {
		return ""
	}
	return sel.Sel.Name
}
