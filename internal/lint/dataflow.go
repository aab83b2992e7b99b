package lint

import "go/ast"

// This file is the flow-sensitive dataflow engine taintflow rides on. Its
// invariant is a flow property — request data is tainted before validation
// and clean after — so the flow-insensitive walks the other analyzers use
// cannot express it.
//
// The engine is an SSA-lite abstract interpreter over go/ast: each analyzer
// supplies an abstract state (its lattice) and a transfer function for leaf
// statements and expressions; the engine threads the state through control
// flow in execution order. Branches are walked on cloned states and joined
// afterwards (terminated paths — return, panic via break/goto conservatism —
// contribute nothing to the join); loops are widened to a fixpoint by
// re-walking the body until the pre-state stops absorbing new facts, with a
// hard iteration cap as a backstop. Every analyzer lattice here is finite
// (bitsets and position sets over a function's locals), so the fixpoint
// terminates in a handful of rounds.
//
// Function literals are deliberately NOT walked inline: a closure built on
// this path may run on another goroutine or after the function returns, so
// its body gets no facts from the enclosing walk. A client that needs a
// closure's facts walks it itself on a cloned state (taintflow's subWalk).

// flowState is one analyzer's abstract state. Implementations are maps from
// locals to lattice values plus whatever path facts the analyzer tracks.
type flowState interface {
	// Clone returns an independent copy for walking a branch.
	Clone() flowState
	// Join merges a completed branch's state into the receiver and reports
	// whether the receiver changed — the loop-widening fixpoint test.
	Join(flowState) bool
}

// maxLoopIter caps loop fixpoint iterations. The lattices are finite, so
// this is a backstop against a client whose Join mis-reports change, not a
// precision knob; real bodies converge in two or three rounds.
const maxLoopIter = 16

// flowEngine drives one analyzer over one function body.
type flowEngine struct {
	// transfer interprets one leaf node: a simple statement (assignment,
	// expression statement, send, inc/dec, declaration, defer, go, return)
	// or a control-flow operand (if/for condition, range operand, switch
	// tag, case expression). Each leaf is passed exactly once per visit.
	transfer func(n ast.Node, st flowState)
}

// flowPath is a state plus whether the path has terminated.
type flowPath struct {
	st   flowState
	done bool
}

func (p *flowPath) clone() *flowPath { return &flowPath{st: p.st.Clone(), done: p.done} }

// join merges a finished branch back into p; terminated branches contribute
// nothing.
func (p *flowPath) join(b *flowPath) bool {
	if b.done {
		return false
	}
	return p.st.Join(b.st)
}

// run walks one function body from the initial state and returns the state
// at the implicit fall-off-the-end exit (done when every path returned).
func (e *flowEngine) run(body *ast.BlockStmt, init flowState) *flowPath {
	p := &flowPath{st: init}
	e.stmts(body.List, p)
	return p
}

func (e *flowEngine) stmts(list []ast.Stmt, p *flowPath) {
	for _, s := range list {
		if p.done {
			return
		}
		e.stmt(s, p)
	}
}

func (e *flowEngine) leaf(n ast.Node, p *flowPath) {
	if n != nil {
		e.transfer(n, p.st)
	}
}

func (e *flowEngine) stmt(stmt ast.Stmt, p *flowPath) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		e.stmts(s.List, p)
	case *ast.ReturnStmt:
		e.leaf(s, p)
		p.done = true
	case *ast.BranchStmt:
		// break/continue/goto/fallthrough leave the walked region; dropping
		// the path is conservative toward silence, never noise.
		p.done = true
	case *ast.IfStmt:
		if s.Init != nil {
			e.stmt(s.Init, p)
		}
		e.leaf(s.Cond, p)
		body := p.clone()
		e.stmts(s.Body.List, body)
		if s.Else == nil {
			// The not-taken path keeps p's state; the taken path joins in.
			p.join(body)
			return
		}
		els := p.clone()
		e.stmt(s.Else, els)
		switch {
		case body.done && els.done:
			p.done = true
		case body.done:
			p.st = els.st
		default:
			p.st = body.st
			p.join(els)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			e.stmt(s.Init, p)
		}
		e.loop(s.Cond, nil, s.Post, s.Body, p)
	case *ast.RangeStmt:
		// The range operand is re-transferred per fixpoint iteration: the
		// loop keeps reading the ranged-over state on every step, so a fact
		// the body sets is seen by the operand on the next round.
		e.loop(nil, s.X, nil, s.Body, p)
	case *ast.SwitchStmt:
		if s.Init != nil {
			e.stmt(s.Init, p)
		}
		e.leaf(s.Tag, p)
		e.branches(s.Body.List, p)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			e.stmt(s.Init, p)
		}
		e.stmt(s.Assign, p)
		e.branches(s.Body.List, p)
	case *ast.SelectStmt:
		e.branches(s.Body.List, p)
	case *ast.LabeledStmt:
		e.stmt(s.Stmt, p)
	default:
		// Assignments, expression statements, declarations, send, inc/dec,
		// defer, go: leaves the client interprets.
		e.leaf(stmt, p)
	}
}

// loop widens a loop body to fixpoint: each round walks the body (then post,
// range operand and condition — the next iteration's reads) on a clone and
// joins the survivors back; when the pre-state stops absorbing facts the
// loop is stable. The zero-iteration path is p itself, never lost.
func (e *flowEngine) loop(cond ast.Expr, rng ast.Expr, post ast.Stmt, body *ast.BlockStmt, p *flowPath) {
	e.leaf(rng, p)
	e.leaf(cond, p)
	for i := 0; i < maxLoopIter; i++ {
		it := p.clone()
		e.stmts(body.List, it)
		if !it.done {
			if post != nil {
				e.stmt(post, it)
			}
			e.leaf(rng, it)
			e.leaf(cond, it)
		}
		if !p.join(it) {
			return
		}
	}
}

// branches walks each case/comm clause of a switch or select on a clone and
// joins the survivors. Without a default clause the zero-match path keeps
// p's own state; with one (or in a select, where some clause always runs),
// the first surviving clause replaces it.
func (e *flowEngine) branches(clauses []ast.Stmt, p *flowPath) {
	hasDefault := false
	var survivors []*flowPath
	allDone := true
	for _, c := range clauses {
		branch := p.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, x := range cc.List {
				e.leaf(x, branch)
			}
			e.stmts(cc.Body, branch)
		case *ast.CommClause:
			hasDefault = true // some clause always runs once one is ready
			if cc.Comm != nil {
				e.stmt(cc.Comm, branch)
			}
			e.stmts(cc.Body, branch)
		}
		if !branch.done {
			allDone = false
			survivors = append(survivors, branch)
		}
	}
	if hasDefault && len(clauses) > 0 {
		if allDone {
			p.done = true
			return
		}
		p.st = survivors[0].st
		for _, b := range survivors[1:] {
			p.join(b)
		}
		return
	}
	for _, b := range survivors {
		p.join(b)
	}
}
