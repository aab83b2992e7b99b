package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockorderAnalyzer builds the module-wide lock-acquisition-order graph and
// reports cycles. A lock class is a sync.Mutex/sync.RWMutex struct field
// (all instances of a type share a class); an edge A -> B is recorded when
// B is acquired — directly, or transitively through a module-internal
// callee's acquire set — while A is held. Any cycle in the graph is a
// potential deadlock: two goroutines entering the cycle from different
// points can each hold the lock the other needs. Every edge in a cycle is
// reported at its witness acquisition, so the finding shows both paths.
//
// The held-lock state is the same forward flow lockguard uses (branch-local
// acquisition, deferred unlocks keep the lock held); callee acquire sets
// come from the shared interprocedural summaries.
var LockorderAnalyzer = &Analyzer{
	Name:       "lockorder",
	RunProgram: runLockorder,
}

// lockEdge is one ordered pair in the acquisition graph with its first
// witness.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos // where `to` was acquired (or the call reaching it)
	fn       string    // function containing the witness
	via      string    // callee name when the acquisition is transitive
}

type lockEdgeKey struct{ from, to *types.Var }

func runLockorder(p *Pass) {
	ip := p.Prog.Interproc()
	edges := make(map[lockEdgeKey]lockEdge)
	for _, fi := range ip.order {
		if !fi.Pkg.Analyze {
			continue
		}
		w := &lockorderWalker{ip: ip, info: fi.Pkg.Info, fn: fi.Fn.Name(), self: fi.Fn, edges: edges}
		w.stmts(fi.Decl.Body.List, map[*types.Var]token.Pos{})
	}
	reportLockCycles(p, ip, edges)
}

// lockorderWalker threads the held-lock set through one function body,
// recording order edges.
type lockorderWalker struct {
	ip    *Interproc
	info  *types.Info
	fn    string
	self  *types.Func
	edges map[lockEdgeKey]lockEdge
}

func (w *lockorderWalker) addEdge(held map[*types.Var]token.Pos, to *types.Var, pos token.Pos, via string) {
	for from := range held {
		if from == to && via == "" {
			continue // direct re-acquire is lockguard's double-acquire finding
		}
		key := lockEdgeKey{from: from, to: to}
		if _, ok := w.edges[key]; !ok {
			w.edges[key] = lockEdge{from: from, to: to, pos: pos, fn: w.fn, via: via}
		}
	}
}

// call records the ordering effects of one call: a direct Lock/RLock edge
// and acquisition, a direct Unlock release, or the transitive acquire set
// of a module-internal callee.
func (w *lockorderWalker) call(call *ast.CallExpr, held map[*types.Var]token.Pos) {
	if mu, kind := lockOp(w.info, call); mu != nil {
		switch kind {
		case lockShared, lockExclusive:
			w.addEdge(held, mu, call.Pos(), "")
			held[mu] = call.Pos()
		case lockNone:
			delete(held, mu)
		}
		return
	}
	targets, viaIface := w.ip.CallTargets(w.info, call)
	selfT := receiverTypeName(w.self)
	for _, callee := range targets {
		// An interface call from a method of T resolving back to a method
		// of T is a wrapper dispatching to the value it wraps
		// (ConcurrentIndex.KNNSnapshot -> inner WorkspaceSearcher.KNNWith),
		// never literally the same instance; skip it rather than report a
		// self-deadlock that cannot happen by construction.
		if viaIface && sameReceiver(callee, w.self) {
			continue
		}
		sum := w.ip.Summary(callee)
		for mu := range sum.Acquires {
			// The same wrapper argument one level deeper: a transitive
			// acquire of a lock owned by T, reached from a method of T
			// through interface dispatch, would require the wrapped value
			// to (transitively) contain its own wrapper. Ownership is
			// acyclic by construction, so discount it; a genuine direct
			// re-entry is lockguard's finding.
			if viaIface && selfT != nil && w.ip.lockOwner(mu) == selfT {
				continue
			}
			w.addEdge(held, mu, call.Pos(), callee.Name())
		}
	}
}

// exprs visits calls inside an expression tree in source order. Function
// literals are walked with no locks held: the closure may run on another
// goroutine, where the caller's locks are not its own.
func (w *lockorderWalker) exprs(e ast.Expr, held map[*types.Var]token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.stmts(n.Body.List, map[*types.Var]token.Pos{})
			return false
		case *ast.CallExpr:
			w.call(n, held)
		}
		return true
	})
}

func (w *lockorderWalker) stmts(list []ast.Stmt, held map[*types.Var]token.Pos) {
	for _, stmt := range list {
		w.stmt(stmt, held)
	}
}

func (w *lockorderWalker) stmt(stmt ast.Stmt, held map[*types.Var]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		w.exprs(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held through the rest of the
		// function; other deferred calls run after everything else and do
		// not order against the current held set.
		if mu, kind := lockOp(w.info, s.Call); mu != nil && kind == lockNone {
			return
		}
		w.exprs(s.Call, copyPosHeld(held))
	case *ast.BlockStmt:
		w.stmts(s.List, copyPosHeld(held))
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprs(s.Cond, held)
		w.stmts(s.Body.List, copyPosHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyPosHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprs(s.Cond, held)
		inner := copyPosHeld(held)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
		w.stmts(s.Body.List, inner)
	case *ast.RangeStmt:
		w.exprs(s.X, held)
		w.stmts(s.Body.List, copyPosHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprs(s.Tag, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.exprs(e, held)
			}
			w.stmts(cc.Body, copyPosHeld(held))
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			w.stmts(cc.Body, copyPosHeld(held))
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			inner := copyPosHeld(held)
			if cc.Comm != nil {
				w.stmt(cc.Comm, inner)
			}
			w.stmts(cc.Body, inner)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			w.exprs(e, held)
		}
		for _, e := range s.Rhs {
			w.exprs(e, held)
		}
	case *ast.IncDecStmt:
		w.exprs(s.X, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.exprs(e, held)
		}
	case *ast.GoStmt:
		// The spawned goroutine starts with no locks of its caller's.
		w.exprs(g0Call(s), map[*types.Var]token.Pos{})
	case *ast.SendStmt:
		w.exprs(s.Chan, held)
		w.exprs(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.exprs(v, held)
					}
				}
			}
		}
	}
}

func g0Call(s *ast.GoStmt) ast.Expr { return s.Call }

func copyPosHeld(held map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	out := make(map[*types.Var]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// reportLockCycles finds strongly connected components of the acquisition
// graph and reports every edge inside one.
func reportLockCycles(p *Pass, ip *Interproc, edges map[lockEdgeKey]lockEdge) {
	if len(edges) == 0 {
		return
	}
	adj := make(map[*types.Var][]*types.Var)
	var nodes []*types.Var
	seen := make(map[*types.Var]bool)
	addNode := func(v *types.Var) {
		if !seen[v] {
			seen[v] = true
			nodes = append(nodes, v)
		}
	}
	for key := range edges {
		addNode(key.from)
		addNode(key.to)
		adj[key.from] = append(adj[key.from], key.to)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })

	comp := sccs(nodes, adj)
	for key, e := range edges {
		// An edge lies on a cycle when its endpoints share a (non-trivial)
		// component; a self-edge is a cycle of length one.
		if key.from != key.to && comp[key.from] != comp[key.to] {
			continue
		}
		via := ""
		if e.via != "" {
			via = " via " + e.via
		}
		if key.from == key.to {
			p.Reportf(e.pos, "%s may re-acquire %s already held%s: self-deadlock",
				e.fn, ip.lockName(e.to), via)
			continue
		}
		p.Reportf(e.pos, "lock order cycle: %s acquires %s while holding %s%s; another path acquires them in the opposite order",
			e.fn, ip.lockName(e.to), ip.lockName(e.from), via)
	}
}

// lockOwner returns the named type whose struct declares the lock field,
// or nil if no module type does.
func (ip *Interproc) lockOwner(mu *types.Var) *types.TypeName {
	for _, named := range ip.named {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == mu {
				return named.Obj()
			}
		}
	}
	return nil
}

// lockName renders a lock class as Owner.field.
func (ip *Interproc) lockName(mu *types.Var) string {
	if owner := ip.lockOwner(mu); owner != nil {
		return owner.Name() + "." + mu.Name()
	}
	return mu.Name()
}

// sccs computes strongly connected components (Tarjan, iterative enough for
// the handful of lock classes a module has), returning a component id per
// node. Components are only meaningful for cycle membership: an edge whose
// endpoints share a component lies on a cycle, except trivial singletons
// without self-edges — those singletons get unique ids, so cross-component
// edges never collide with them.
func sccs(nodes []*types.Var, adj map[*types.Var][]*types.Var) map[*types.Var]int {
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	comp := make(map[*types.Var]int)
	var stack []*types.Var
	next, compID := 0, 0

	var strong func(v *types.Var)
	strong = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wv := range adj[v] {
			if _, ok := index[wv]; !ok {
				strong(wv)
				if low[wv] < low[v] {
					low[v] = low[wv]
				}
			} else if onStack[wv] && index[wv] < low[v] {
				low[v] = index[wv]
			}
		}
		if low[v] == index[v] {
			var members []*types.Var
			for {
				wv := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[wv] = false
				members = append(members, wv)
				if wv == v {
					break
				}
			}
			if len(members) > 1 {
				for _, m := range members {
					comp[m] = compID
				}
			} else {
				comp[members[0]] = -1 - compID // unique id for singletons
			}
			compID++
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strong(v)
		}
	}
	return comp
}
