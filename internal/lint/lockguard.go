package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockguardAnalyzer enforces the struct-layout locking convention the
// concurrent types (index.ConcurrentIndex, server.Server) follow: fields
// declared after a sync.Mutex/sync.RWMutex field — up to the next mutex
// field — are guarded by it, and may only be touched in methods that hold
// that mutex on the path to the access. Writes require the exclusive lock;
// reads accept either Lock or RLock.
//
// The analysis is a forward flow over each method body: Lock/RLock on the
// receiver's mutex marks it held, Unlock/RUnlock releases it, and a lock
// acquired inside a branch does not leak past the branch. Non-method
// functions are exempt (constructors initialize fields before the value is
// shared).
//
// Methods whose name ends in "Locked" promise that the caller holds the
// lock; the promise is verified, not taken on faith. A Locked method's
// body is analyzed under the assumption the receiver's mutexes are held
// exclusively — so a Locked method that acquires the mutex itself is a
// self-deadlock finding — and every call site of a Locked method is checked
// to actually hold the locks the callee's body needs (transitively through
// Locked-to-Locked calls). Acquiring a mutex the flow already marks held is
// reported for every method.
var LockguardAnalyzer = &Analyzer{
	Name: "lockguard",
	Run:  runLockguard,
}

// lockKind is how a mutex is currently held.
type lockKind int

const (
	lockNone lockKind = iota
	lockShared
	lockExclusive
)

// guardGroups maps each guarded field of a struct to its mutex field.
// Field order defines ownership: a mutex guards the fields that follow it
// until the next mutex field.
func guardGroups(st *types.Struct) map[*types.Var]*types.Var {
	var current *types.Var
	groups := make(map[*types.Var]*types.Var)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if isMutexType(f.Type()) {
			current = f
			continue
		}
		if current != nil {
			groups[f] = current
		}
	}
	if len(groups) == 0 {
		return nil
	}
	return groups
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex or a pointer to
// one.
func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func runLockguard(p *Pass) {
	info := p.Pkg.Info

	// Guarded field layouts for every struct type declared in this package.
	byStruct := make(map[*types.TypeName]map[*types.Var]*types.Var)
	scope := p.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		if g := guardGroups(st); g != nil {
			byStruct[tn] = g
		}
	}
	if len(byStruct) == 0 {
		return
	}

	needs := &lockNeeds{pass: p, byStruct: byStruct, memo: make(map[*types.Func]map[*types.Var]lockKind)}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recvField := fd.Recv.List[0]
			if len(recvField.Names) == 0 {
				continue // unnamed receiver: no field access possible
			}
			recv, ok := info.Defs[recvField.Names[0]].(*types.Var)
			if !ok {
				continue
			}
			guards := guardsForReceiver(recv.Type(), byStruct)
			if guards == nil {
				continue
			}
			lg := &lockguardWalker{pass: p, recv: recv, guards: guards, method: fd.Name.Name, needs: needs}
			entry := map[*types.Var]lockKind{}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				// The Locked contract: the caller holds the receiver's
				// mutexes. Analyze the body under that assumption; an
				// acquisition inside is then a self-deadlock by contract.
				lg.locked = true
				for _, mu := range guards {
					entry[mu] = lockExclusive
				}
			}
			lg.stmts(fd.Body.List, entry)
		}
	}
}

// lockNeeds computes, per *Locked method, the receiver mutexes its body
// (transitively, through same-struct Locked callees) needs held, memoized.
type lockNeeds struct {
	pass     *Pass
	byStruct map[*types.TypeName]map[*types.Var]*types.Var
	memo     map[*types.Func]map[*types.Var]lockKind
	visiting map[*types.Func]bool
}

// of returns the needed-locks map for a Locked method, or nil when its body
// is not in this package.
func (ln *lockNeeds) of(fn *types.Func) map[*types.Var]lockKind {
	if got, ok := ln.memo[fn]; ok {
		return got
	}
	if ln.visiting == nil {
		ln.visiting = make(map[*types.Func]bool)
	}
	if ln.visiting[fn] {
		return nil // Locked-call cycle: stop, the first frame owns the result
	}
	fi := ln.pass.Prog.Interproc().Funcs[fn]
	if fi == nil || fi.Decl.Recv == nil || len(fi.Decl.Recv.List[0].Names) == 0 {
		ln.memo[fn] = nil
		return nil
	}
	info := fi.Pkg.Info
	recv, ok := info.Defs[fi.Decl.Recv.List[0].Names[0]].(*types.Var)
	if !ok {
		ln.memo[fn] = nil
		return nil
	}
	guards := guardsForReceiver(recv.Type(), ln.byStruct)
	if guards == nil {
		ln.memo[fn] = nil
		return nil
	}
	ln.visiting[fn] = true
	needs := make(map[*types.Var]lockKind)
	raise := func(mu *types.Var, kind lockKind) {
		if kind > needs[mu] {
			needs[mu] = kind
		}
	}
	classify := func(sel *ast.SelectorExpr, write bool) {
		id, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || info.Uses[id] != recv {
			return
		}
		field, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return
		}
		if mu, guarded := guards[field]; guarded {
			kind := lockShared
			if write {
				kind = lockExclusive
			}
			raise(mu, kind)
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				switch x := ast.Unparen(lhs).(type) {
				case *ast.SelectorExpr:
					classify(x, true)
				case *ast.IndexExpr:
					if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
						classify(sel, true)
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				classify(sel, true)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					if sel, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok {
						classify(sel, true)
					}
				}
			}
			if callee := lockedCallee(info, recv, n); callee != nil {
				for mu, kind := range ln.of(callee) {
					raise(mu, kind)
				}
			}
		case *ast.SelectorExpr:
			classify(n, false)
		}
		return true
	})
	delete(ln.visiting, fn)
	ln.memo[fn] = needs
	return needs
}

// lockedCallee resolves a call to a same-receiver *Locked method: recv.m(...)
// where m's name ends in Locked and its receiver is recv's struct.
func lockedCallee(info *types.Info, recv *types.Var, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(sel.Sel.Name, "Locked") {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || info.Uses[id] != recv {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	return fn
}

// guardsForReceiver finds the guard layout for a method receiver type.
func guardsForReceiver(t types.Type, byStruct map[*types.TypeName]map[*types.Var]*types.Var) map[*types.Var]*types.Var {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return byStruct[named.Obj()]
}

// lockguardWalker carries the per-method analysis state.
type lockguardWalker struct {
	pass   *Pass
	recv   *types.Var
	guards map[*types.Var]*types.Var // guarded field -> mutex field
	method string
	locked bool // method name ends in Locked: caller-holds-lock contract
	needs  *lockNeeds
}

// stmts walks a statement list, threading the held-lock state forward.
// Sub-blocks (branches, loops) run on a copy: a lock taken inside a branch
// is not assumed held after it.
func (lg *lockguardWalker) stmts(list []ast.Stmt, held map[*types.Var]lockKind) {
	for _, stmt := range list {
		lg.stmt(stmt, held)
	}
}

func (lg *lockguardWalker) stmt(stmt ast.Stmt, held map[*types.Var]lockKind) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if mu, kind := lg.lockCall(s.X); mu != nil {
			if kind == lockNone {
				delete(held, mu)
			} else {
				if held[mu] != lockNone {
					if lg.locked {
						lg.pass.Reportf(s.X.Pos(),
							"%s acquires %s itself; the Locked suffix promises the caller already holds it",
							lg.method, mu.Name())
					} else {
						lg.pass.Reportf(s.X.Pos(),
							"%s re-acquires %s while already holding it: self-deadlock",
							lg.method, mu.Name())
					}
				}
				held[mu] = kind
			}
			return
		}
		lg.exprs(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held through the rest of the
		// method; any other deferred call is analyzed as an expression.
		if mu, kind := lg.lockCall(s.Call); mu != nil && kind == lockNone {
			return
		}
		lg.exprs(s.Call, held)
	case *ast.BlockStmt:
		lg.stmts(s.List, copyHeld(held))
	case *ast.IfStmt:
		if s.Init != nil {
			lg.stmt(s.Init, held)
		}
		lg.exprs(s.Cond, held)
		lg.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			lg.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lg.stmt(s.Init, held)
		}
		if s.Cond != nil {
			lg.exprs(s.Cond, held)
		}
		inner := copyHeld(held)
		if s.Post != nil {
			lg.stmt(s.Post, inner)
		}
		lg.stmts(s.Body.List, inner)
	case *ast.RangeStmt:
		lg.exprs(s.X, held)
		lg.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lg.stmt(s.Init, held)
		}
		if s.Tag != nil {
			lg.exprs(s.Tag, held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				lg.exprs(e, held)
			}
			lg.stmts(cc.Body, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			lg.stmt(s.Init, held)
		}
		lg.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			lg.stmts(cc.Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			inner := copyHeld(held)
			if cc.Comm != nil {
				lg.stmt(cc.Comm, inner)
			}
			lg.stmts(cc.Body, inner)
		}
	case *ast.LabeledStmt:
		lg.stmt(s.Stmt, held)
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			lg.access(lhs, held, true)
		}
		for _, rhs := range s.Rhs {
			lg.exprs(rhs, held)
		}
	case *ast.IncDecStmt:
		lg.access(s.X, held, true)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lg.exprs(e, held)
		}
	case *ast.GoStmt:
		lg.exprs(s.Call, held)
	case *ast.SendStmt:
		lg.exprs(s.Chan, held)
		lg.exprs(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						lg.exprs(v, held)
					}
				}
			}
		}
	}
}

// lockCall matches recv.mu.Lock()/RLock()/Unlock()/RUnlock() on a guarding
// mutex field of the receiver, returning the mutex and the resulting state
// (lockNone means a release).
func (lg *lockguardWalker) lockCall(e ast.Expr) (*types.Var, lockKind) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, lockNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, lockNone
	}
	mu := lg.receiverMutex(sel.X)
	if mu == nil {
		return nil, lockNone
	}
	switch sel.Sel.Name {
	case "Lock":
		return mu, lockExclusive
	case "RLock":
		return mu, lockShared
	case "Unlock", "RUnlock":
		return mu, lockNone
	}
	return nil, lockNone
}

// receiverMutex resolves recv.mu to the mutex field when mu guards fields of
// the receiver's struct.
func (lg *lockguardWalker) receiverMutex(e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || lg.pass.Pkg.Info.Uses[id] != lg.recv {
		return nil
	}
	field, ok := lg.pass.Pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return nil
	}
	for _, mu := range lg.guards {
		if mu == field {
			return field
		}
	}
	return nil
}

// exprs checks every guarded-field read inside an expression tree. Function
// literal bodies are analyzed with no locks held: the closure may run after
// the method returns.
func (lg *lockguardWalker) exprs(e ast.Expr, held map[*types.Var]lockKind) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lg.stmts(n.Body.List, map[*types.Var]lockKind{})
			return false
		case *ast.CallExpr:
			// delete(recv.field, k) mutates the guarded map.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) > 0 {
				if b, ok := lg.pass.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					if sel, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok {
						lg.checkAccess(sel, held, true)
					}
				}
			}
			// recv.fooLocked(...): the callee's contract is that its needed
			// locks are held here — verify instead of trusting the suffix.
			if callee := lockedCallee(lg.pass.Pkg.Info, lg.recv, n); callee != nil {
				lg.checkLockedCall(n, callee, held)
			}
		case *ast.SelectorExpr:
			lg.checkAccess(n, held, false)
		}
		return true
	})
}

// access classifies one lvalue: assignments to recv.field, recv.field[i] and
// delete(recv.field, k) mutate guarded state and need the exclusive lock.
func (lg *lockguardWalker) access(e ast.Expr, held map[*types.Var]lockKind, write bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		lg.checkAccess(x, held, write)
		lg.exprs(x.X, held)
	case *ast.IndexExpr:
		if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
			lg.checkAccess(sel, held, write)
		} else {
			lg.exprs(x.X, held)
		}
		lg.exprs(x.Index, held)
	default:
		lg.exprs(e, held)
	}
}

// checkAccess reports a guarded-field access made without the required lock.
func (lg *lockguardWalker) checkAccess(sel *ast.SelectorExpr, held map[*types.Var]lockKind, write bool) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || lg.pass.Pkg.Info.Uses[id] != lg.recv {
		return
	}
	field, ok := lg.pass.Pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	mu, guarded := lg.guards[field]
	if !guarded {
		return
	}
	kind := held[mu]
	if kind == lockNone {
		lg.pass.Reportf(sel.Sel.Pos(),
			"%s: field %s is guarded by %s but accessed without holding it",
			lg.method, field.Name(), mu.Name())
		return
	}
	if write && kind == lockShared {
		lg.pass.Reportf(sel.Sel.Pos(),
			"%s: field %s is guarded by %s but written while holding only the read lock",
			lg.method, field.Name(), mu.Name())
	}
}

// checkLockedCall verifies one call site of a *Locked method: every mutex
// the callee's body (transitively) needs must be held here, exclusively
// when the callee writes under it.
func (lg *lockguardWalker) checkLockedCall(call *ast.CallExpr, callee *types.Func, held map[*types.Var]lockKind) {
	for mu, need := range lg.needs.of(callee) {
		switch have := held[mu]; {
		case have == lockNone:
			lg.pass.Reportf(call.Pos(),
				"%s calls %s without holding %s (the callee touches fields %s guards)",
				lg.method, callee.Name(), mu.Name(), mu.Name())
		case need == lockExclusive && have == lockShared:
			lg.pass.Reportf(call.Pos(),
				"%s calls %s holding only the read lock on %s, but the callee writes under it",
				lg.method, callee.Name(), mu.Name())
		}
	}
}

func copyHeld(held map[*types.Var]lockKind) map[*types.Var]lockKind {
	out := make(map[*types.Var]lockKind, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
