package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file builds the module-wide static call graph the interprocedural
// analyzers (walorder, taintflow) share. Nodes are module-internal functions
// with bodies; edges are calls that resolve statically (package functions,
// concrete methods, qualified cross-package calls) plus interface calls
// resolved through method-set satisfaction against every named type declared
// in the module. Calls through plain function values stay unresolved — the
// analyzers that ride on the graph are deliberately conservative about what
// they cannot see.

// FuncInfo is one module-internal function with a body.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Interproc is the shared interprocedural state: the call graph plus the
// per-function effect summaries (summary.go). It is built once per Program
// and cached.
type Interproc struct {
	// Funcs maps every module-internal function with a body to its info.
	Funcs map[*types.Func]*FuncInfo
	// order is Funcs in deterministic (file-position) order.
	order []*FuncInfo

	// named is every non-interface named type declared in the module, the
	// candidate set for interface-satisfaction call resolution.
	named []*types.Named
	// ifaceCache memoizes resolveInterface per (interface, method).
	ifaceCache map[ifaceKey][]*types.Func

	summaries map[*types.Func]*Summary
}

type ifaceKey struct {
	iface  *types.Interface
	method string
}

// Interproc returns the program's interprocedural state, building it on
// first use.
func (prog *Program) Interproc() *Interproc {
	if prog.ip == nil {
		prog.ip = buildInterproc(prog)
	}
	return prog.ip
}

func buildInterproc(prog *Program) *Interproc {
	ip := &Interproc{
		Funcs:      make(map[*types.Func]*FuncInfo),
		ifaceCache: make(map[ifaceKey][]*types.Func),
		summaries:  make(map[*types.Func]*Summary),
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				ip.Funcs[fn] = fi
				ip.order = append(ip.order, fi)
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			ip.named = append(ip.named, named)
		}
	}
	sort.Slice(ip.order, func(i, j int) bool {
		return ip.order[i].Decl.Pos() < ip.order[j].Decl.Pos()
	})
	sort.Slice(ip.named, func(i, j int) bool {
		return ip.named[i].Obj().Pos() < ip.named[j].Obj().Pos()
	})
	ip.computeSummaries()
	return ip
}

// Callees resolves one call expression to the module-internal functions it
// may invoke. Static calls resolve to exactly one; interface calls resolve
// to every module type satisfying the interface; anything else (builtins,
// function values, stdlib) resolves to nothing.
func (ip *Interproc) Callees(info *types.Info, call *ast.CallExpr) []*types.Func {
	if fn := staticCallee(info, call); fn != nil {
		if _, ok := ip.Funcs[fn]; ok {
			return []*types.Func{fn}
		}
		return nil
	}
	// Interface method call: resolve through method-set satisfaction.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return nil
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return ip.resolveInterface(iface, fn)
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

// resolveInterface returns the module-internal implementations of an
// interface method: for every named module type whose pointer method set
// satisfies the interface, the concrete method with the call's name.
func (ip *Interproc) resolveInterface(iface *types.Interface, m *types.Func) []*types.Func {
	key := ifaceKey{iface: iface, method: m.Name()}
	if out, ok := ip.ifaceCache[key]; ok {
		return out
	}
	var out []*types.Func
	for _, named := range ip.named {
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		msel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name())
		if msel == nil {
			continue
		}
		impl, ok := msel.Obj().(*types.Func)
		if !ok {
			continue
		}
		if _, local := ip.Funcs[impl]; local {
			out = append(out, impl)
		}
	}
	ip.ifaceCache[key] = out
	return out
}
