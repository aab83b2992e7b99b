package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the spawn-lifecycle layer shared by goleak and the
// EffSpawnDetached summary bit: resolving what a go statement launches, and
// deciding whether the spawner provably collects the goroutine again — a
// WaitGroup Done/Wait pair or a channel handoff received back in the
// spawner's own body. A goroutine that is neither joined nor cancellable is
// detached: it can outlive the function (and on the serving path, the
// process drain) that launched it.

// spawnTarget resolves a go statement to the effects, body and type info of
// what it spawns. ok is false when the spawn is opaque — a plain function
// value, or a callee with no body in the module — which the callers treat as
// conservative silence.
func spawnTarget(ip *Interproc, info *types.Info, g *ast.GoStmt) (eff Effect, spawned *ast.BlockStmt, spawnedInfo *types.Info, what string, ok bool) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return litEffects(ip, info, fun), fun.Body, info, "goroutine", true
	default:
		fn := staticCallee(info, g.Call)
		if fn == nil {
			return 0, nil, nil, "", false
		}
		fi := ip.Funcs[fn]
		if fi == nil {
			return 0, nil, nil, "", false
		}
		return ip.summaries[fn].Effects, fi.Decl.Body, fi.Pkg.Info, "goroutine running " + fn.Name(), true
	}
}

// litEffects computes the transitive effects of a function literal: its own
// body's base effects plus the summaries of the module-internal functions
// it calls.
func litEffects(ip *Interproc, info *types.Info, lit *ast.FuncLit) Effect {
	var eff Effect
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isCancelChan(info, n.X) {
				eff |= EffCancel
			}
		case *ast.CallExpr:
			if isCtxSignal(info, n) {
				eff |= EffCancel
				return true
			}
			for _, callee := range ip.Callees(info, n) {
				eff |= ip.Summary(callee).Effects
			}
		}
		return true
	})
	return eff
}

// joinedBySpawner reports whether the goroutine spawned by g is collected
// again inside scope (the spawning function's body): the goroutine signals
// completion — wg.Done() on a sync.WaitGroup, a send on or close of a
// channel — and the scope observes that same variable with wg.Wait(), a
// receive, or a range. For a static callee, completion signals on the
// callee's own parameters fold through the call site onto the spawner's
// argument variables (the `go worker(&wg)` idiom).
func joinedBySpawner(ip *Interproc, info *types.Info, scope *ast.BlockStmt, g *ast.GoStmt, spawned *ast.BlockStmt, spawnedInfo *types.Info) bool {
	if scope == nil || spawned == nil {
		return false
	}
	wgs := make(map[*types.Var]bool) // WaitGroups the goroutine calls Done on
	chs := make(map[*types.Var]bool) // channels the goroutine sends on or closes
	ast.Inspect(spawned, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if v := waitGroupVar(spawnedInfo, sel.X); v != nil {
					wgs[v] = true
				}
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, ok := objOf(spawnedInfo, id).(*types.Builtin); ok && b.Name() == "close" {
					if v := chanVar(spawnedInfo, n.Args[0]); v != nil {
						chs[v] = true
					}
				}
			}
		case *ast.SendStmt:
			if v := chanVar(spawnedInfo, n.Chan); v != nil {
				chs[v] = true
			}
		}
		return true
	})
	if fn := staticCallee(info, g.Call); fn != nil {
		foldSpawnSignals(ip, info, g.Call, fn, wgs, chs)
	}
	if len(wgs) == 0 && len(chs) == 0 {
		return false
	}
	joined := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if joined {
			return false
		}
		if n == g {
			// The goroutine's own body never joins itself: a Wait or receive
			// inside the spawned closure is the goroutine waiting, not the
			// spawner collecting it.
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if v := waitGroupVar(info, sel.X); v != nil && wgs[v] {
					joined = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if v := chanVar(info, n.X); v != nil && chs[v] {
					joined = true
				}
			}
		case *ast.RangeStmt:
			if v := chanVar(info, n.X); v != nil && chs[v] {
				joined = true
			}
		}
		return true
	})
	return joined
}

// foldSpawnSignals rewrites completion signals on a spawned callee's own
// parameters into the caller's argument variables: when worker(wg) calls
// wg.Done() on its parameter, `go worker(&w)` signals on the caller's w.
func foldSpawnSignals(ip *Interproc, info *types.Info, call *ast.CallExpr, fn *types.Func, wgs, chs map[*types.Var]bool) {
	fi := ip.Funcs[fn]
	if fi == nil {
		return
	}
	remap := func(set map[*types.Var]bool) {
		for v := range set {
			idx := paramIndex(fi.Pkg.Info, fi.Decl, v)
			if idx < 0 || idx >= len(call.Args) {
				continue
			}
			arg := ast.Unparen(call.Args[idx])
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
				arg = ast.Unparen(u.X)
			}
			if root := rootVar(info, arg); root != nil {
				set[root] = true
			}
		}
	}
	remap(wgs)
	remap(chs)
}

// waitGroupVar resolves the receiver of a Done/Wait call to its variable —
// a local, a parameter (possibly *sync.WaitGroup) or a struct field — when
// that variable is a sync.WaitGroup.
func waitGroupVar(info *types.Info, e ast.Expr) *types.Var {
	var v *types.Var
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ = objOf(info, x).(*types.Var)
	case *ast.SelectorExpr:
		v, _ = info.Uses[x.Sel].(*types.Var)
	}
	if v == nil {
		return nil
	}
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || obj.Name() != "WaitGroup" {
		return nil
	}
	return v
}

// chanVar resolves a channel-typed expression to its variable: a local or
// parameter identifier, or a struct field (canonical per field, so the
// signal matches across the spawner and the goroutine).
func chanVar(info *types.Info, e ast.Expr) *types.Var {
	var v *types.Var
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ = objOf(info, x).(*types.Var)
	case *ast.SelectorExpr:
		v, _ = info.Uses[x.Sel].(*types.Var)
	}
	if v == nil {
		return nil
	}
	if _, ok := v.Type().Underlying().(*types.Chan); !ok {
		return nil
	}
	return v
}

// goDetached reports whether one go statement launches a detached goroutine:
// not cancellable (no EffCancel anywhere in the spawned tree) and not joined
// by its spawner within scope. Opaque spawns resolve to false — conservative
// toward silence.
func (ip *Interproc) goDetached(info *types.Info, scope *ast.BlockStmt, g *ast.GoStmt) bool {
	eff, spawned, spawnedInfo, _, ok := spawnTarget(ip, info, g)
	if !ok {
		return false
	}
	if eff&EffCancel != 0 {
		return false
	}
	return !joinedBySpawner(ip, info, scope, g, spawned, spawnedInfo)
}

// computeSpawnDetached runs after the main summary fixpoint: it seeds
// EffSpawnDetached at every function containing a detached go statement
// (skipping //sapla:daemon sites, so a documented process-lifetime loop
// never taints its callers), then propagates the bit up the call graph to a
// fixpoint. It must run as a post-pass — the detachment test reads the
// converged EffCancel of the spawned tree, which is only final once the main
// fixpoint is done.
func (ip *Interproc) computeSpawnDetached() {
	for _, fi := range ip.order {
		info := fi.Pkg.Info
		detached := false
		eachGoStmt(fi.Decl.Body, func(scope *ast.BlockStmt, g *ast.GoStmt) {
			if detached {
				return
			}
			pos := ip.prog.Fset.Position(g.Pos())
			if ip.prog.suppressed(DirDaemon, pos.Filename, pos.Line) {
				return
			}
			if ip.goDetached(info, scope, g) {
				detached = true
			}
		})
		if detached {
			ip.summaries[fi.Fn].Effects |= EffSpawnDetached
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range ip.order {
			s := ip.summaries[fi.Fn]
			if s.Effects&EffSpawnDetached != 0 {
				continue
			}
			info := fi.Pkg.Info
			eachCall(fi.Decl.Body, func(call *ast.CallExpr) {
				if s.Effects&EffSpawnDetached != 0 {
					return
				}
				for _, callee := range ip.Callees(info, call) {
					if ip.summaries[callee].Effects&EffSpawnDetached != 0 {
						s.Effects |= EffSpawnDetached
						changed = true
						return
					}
				}
			})
		}
	}
}

// eachGoStmt visits every go statement under body with the body of its
// innermost enclosing function — the join-search scope: a go statement
// inside a closure is spawned by that closure, not by the function that
// built it.
func eachGoStmt(body *ast.BlockStmt, fn func(scope *ast.BlockStmt, g *ast.GoStmt)) {
	var walk func(root *ast.BlockStmt)
	walk = func(root *ast.BlockStmt) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body)
				return false
			case *ast.GoStmt:
				fn(root, n)
				// Keep descending: the spawned closure is handled by the
				// FuncLit case with its own scope.
			}
			return true
		})
	}
	walk(body)
}
