package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WalorderAnalyzer enforces the WAL-append-before-acknowledge discipline
// the durable serving path lives by: on every path through a function that
// reaches a WAL append, (1) no success response may be written before the
// append that makes the acknowledged state durable, and (2) no index
// mutation may precede the append that records it — a crash between the
// two would replay a log missing an applied (or acknowledged) write.
//
// The analysis is a path-sensitive forward walk over each function whose
// transitive effect summary includes a WAL append. Call sites are
// classified through the shared effect summaries: a call that may write a
// response is an acknowledgement event when its folded status is a
// constant < 300 or unresolvable (writeErr-style constant-4xx helpers fold
// to "not an ack" and are ignored); a call that may mutate the index is a
// mutation event. A later append event flushes the pending events as
// findings. Compensating appends on error paths (delete-after-failed-insert)
// are the legitimate exception — annotate them //sapla:volatile <reason>.
var WalorderAnalyzer = &Analyzer{
	Name: "walorder",
	Run:  runWalorder,
}

func runWalorder(p *Pass) {
	ip := p.Prog.Interproc()
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := ip.Summary(fn)
			if sum == nil || sum.Effects&EffWALAppend == 0 {
				continue
			}
			w := &walorderWalker{pass: p, ip: ip, fd: fd}
			w.stmts(fd.Body.List, &walPending{})
		}
	}
}

// walPending carries the events awaiting a WAL append on the current path.
type walPending struct {
	resps []token.Pos // success-acknowledging response writes
	mutes []token.Pos // index mutations
	done  bool        // path terminated (return/panic)
}

func (p *walPending) clone() *walPending {
	return &walPending{
		resps: append([]token.Pos(nil), p.resps...),
		mutes: append([]token.Pos(nil), p.mutes...),
	}
}

// merge unions the surviving events of a finished branch back into p.
func (p *walPending) merge(b *walPending) {
	if b.done {
		return
	}
	p.resps = appendNewPos(p.resps, b.resps)
	p.mutes = appendNewPos(p.mutes, b.mutes)
}

func appendNewPos(dst, src []token.Pos) []token.Pos {
	for _, pos := range src {
		seen := false
		for _, have := range dst {
			if have == pos {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, pos)
		}
	}
	return dst
}

// walorderWalker walks one function body, threading pending events forward.
type walorderWalker struct {
	pass *Pass
	ip   *Interproc
	fd   *ast.FuncDecl
}

func (w *walorderWalker) stmts(list []ast.Stmt, pend *walPending) {
	for _, stmt := range list {
		if pend.done {
			return
		}
		w.stmt(stmt, pend)
	}
}

func (w *walorderWalker) stmt(stmt ast.Stmt, pend *walPending) {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		w.events(s, pend)
		pend.done = true
	case *ast.BranchStmt:
		// break/continue/goto leave the walked region; dropping the
		// pending events is conservative toward silence, never noise.
		pend.done = true
	case *ast.BlockStmt:
		w.stmts(s.List, pend)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, pend)
		}
		w.events(s.Cond, pend)
		body := pend.clone()
		w.stmts(s.Body.List, body)
		if s.Else != nil {
			els := pend.clone()
			w.stmt(s.Else, els)
			if body.done && els.done {
				pend.done = true
				return
			}
			pend.resps, pend.mutes = nil, nil
			pend.merge(body)
			pend.merge(els)
			return
		}
		pend.merge(body)
	case *ast.ForStmt:
		w.loop(s.Init, s.Cond, s.Post, s.Body, pend)
	case *ast.RangeStmt:
		w.events(s.X, pend)
		w.loop(nil, nil, nil, s.Body, pend)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.branches(stmt, pend)
	case *ast.DeferStmt:
		// Deferred calls run at function exit, after everything else on
		// the path; their relative order is not this walk's to judge.
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, pend)
	default:
		w.events(stmt, pend)
	}
}

// loop walks a loop body twice, the second pass seeded with the first
// pass's surviving events, so an event late in iteration N meets an append
// early in iteration N+1.
func (w *walorderWalker) loop(init ast.Stmt, cond ast.Expr, post ast.Stmt, body *ast.BlockStmt, pend *walPending) {
	if init != nil {
		w.stmt(init, pend)
	}
	if cond != nil {
		w.events(cond, pend)
	}
	first := pend.clone()
	w.stmts(body.List, first)
	if post != nil {
		w.stmt(post, first)
	}
	second := first.clone()
	second.merge(pend)
	w.stmts(body.List, second)
	pend.merge(first)
	pend.merge(second)
}

// branches walks each case/comm clause of a switch or select on a clone and
// merges the survivors.
func (w *walorderWalker) branches(stmt ast.Stmt, pend *walPending) {
	var init ast.Stmt
	var tag ast.Expr
	var clauses []ast.Stmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		init, tag, clauses = s.Init, s.Tag, s.Body.List
	case *ast.TypeSwitchStmt:
		init, clauses = s.Init, s.Body.List
		w.stmt(s.Assign, pend)
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	if init != nil {
		w.stmt(init, pend)
	}
	if tag != nil {
		w.events(tag, pend)
	}
	merged := &walPending{}
	for _, c := range clauses {
		branch := pend.clone()
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				w.events(e, branch)
			}
			w.stmts(cc.Body, branch)
		case *ast.CommClause:
			if cc.Comm != nil {
				w.stmt(cc.Comm, branch)
			}
			w.stmts(cc.Body, branch)
		}
		merged.merge(branch)
	}
	pend.merge(merged)
}

// events scans one leaf node for effect-bearing calls in source order.
// Function-literal bodies are skipped: a closure built here may run on a
// different path entirely.
func (w *walorderWalker) events(node ast.Node, pend *walPending) {
	if node == nil {
		return
	}
	info := w.pass.Pkg.Info
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var eff Effect
		ack := ackInfo{class: ackNo}
		if respAck, isResp := respWrite(info, w.fd, call); isResp {
			eff |= EffRespWrite
			ack = respAck
		}
		for _, callee := range w.ip.Callees(info, call) {
			cs := w.ip.Summary(callee)
			eff |= cs.Effects
			if cs.Effects&EffRespWrite != 0 {
				ack = ackJoin(ack, foldAck(info, w.fd, call, cs.Ack))
			}
		}
		// An append flushes first: a helper that both appends and then
		// responds has its internal order checked in its own body.
		if eff&EffWALAppend != 0 {
			for _, pos := range pend.resps {
				w.pass.Reportf(pos,
					"success response written before the WAL append that makes it durable (append-before-acknowledge)")
			}
			if len(pend.mutes) > 0 {
				w.pass.Reportf(call.Pos(),
					"WAL append follows an index mutation on the same path; a crash between them replays a log missing the applied write")
			}
			pend.resps, pend.mutes = nil, nil
		}
		if eff&EffRespWrite != 0 && ack.acks() {
			pend.resps = append(pend.resps, call.Pos())
		}
		if eff&EffMutate != 0 {
			pend.mutes = append(pend.mutes, call.Pos())
		}
		return true
	})
}
