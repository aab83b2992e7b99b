package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// ArenaretainAnalyzer enforces the arena aliasing discipline documented on
// nodeArena.slotsOf: a slice into the SoA backing arrays is valid only until
// the next operation that may move them (alloc/reserve/reset, or a Compact).
// It is a single-threaded hazard: a slice retained across a repack keeps
// reading the old backing array, which no longer tracks the tree.
//
// Three escape shapes are findings: (1) using a slice after a call whose
// effect summary says it may repack (flow-sensitive, through helpers via
// EffMayRepack), (2) returning an arena-derived slice, and (3) storing one
// in a struct field or package variable. Value copies are always fine —
// append(dst, src...) derives its provenance from dst, so the
// copy-into-scratch idiom the tree uses analyzes cleanly. A hold the author
// can prove safe carries //sapla:retain <reason>.
var ArenaretainAnalyzer = &Analyzer{
	Name: "arenaretain",
	Doc:  "forbid arena-backed slices from escaping or surviving a call that may repack the arena",
	Run:  runArenaretain,
}

// arenaTypeName is the SoA arena type whose backing arrays the analyzer
// guards. Fixtures model it with a local type of the same name, exactly as
// baseEffects recognizes the repack primitives.
const arenaTypeName = "nodeArena"

func runArenaretain(p *Pass) {
	ip := p.Prog.Interproc()
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The arena's own methods manage the backing arrays; the
			// discipline binds its callers.
			if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				if tn := receiverTypeName(fn); tn != nil && tn.Name() == arenaTypeName {
					continue
				}
			}
			w := &arenaWalker{pass: p, ip: ip, info: p.Pkg.Info, pkgScope: p.Pkg.Types.Scope()}
			if !w.touchesArena(fd.Body) {
				continue
			}
			w.rangePrepass(fd.Body)
			eng := &flowEngine{transfer: w.transfer}
			eng.run(fd.Body, &arenaState{vars: make(map[*types.Var]arenaFact)})
		}
	}
}

// arenaFact is one variable's provenance: whether it may alias arena
// storage, and — once a repack may have happened since it was derived — the
// earliest repack witness.
type arenaFact struct {
	derived bool
	stale   token.Pos // NoPos until a may-repack call intervenes
	staleBy string    // callee name at the witness, for the message
}

// arenaState maps locals to their provenance.
type arenaState struct {
	vars map[*types.Var]arenaFact
}

func (s *arenaState) Clone() flowState {
	c := &arenaState{vars: make(map[*types.Var]arenaFact, len(s.vars))}
	for v, f := range s.vars {
		c.vars[v] = f
	}
	return c
}

func (s *arenaState) Join(other flowState) bool {
	o := other.(*arenaState)
	changed := false
	for v, of := range o.vars {
		f, ok := s.vars[v]
		if !ok {
			s.vars[v] = of
			changed = true
			continue
		}
		merged := f
		if of.derived && !f.derived {
			merged.derived = true
		}
		// Keep the earliest repack witness for deterministic messages.
		if of.stale != token.NoPos && (f.stale == token.NoPos || of.stale < f.stale) {
			merged.stale, merged.staleBy = of.stale, of.staleBy
		}
		if merged != f {
			s.vars[v] = merged
			changed = true
		}
	}
	return changed
}

type arenaWalker struct {
	pass     *Pass
	ip       *Interproc
	info     *types.Info
	pkgScope *types.Scope
}

// touchesArena is the cheap pre-scan: a function that never mentions a
// nodeArena-typed value cannot derive or repack, so the flow walk is skipped.
func (w *arenaWalker) touchesArena(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if e, ok := n.(ast.Expr); ok && isArenaType(typeOf(w.info, e)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isArenaType reports whether t is (a pointer to) the named arena type.
func isArenaType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == arenaTypeName
}

// rangePrepass catches the one shape the variable-based flow walk cannot:
// ranging directly over an arena source while the body may repack — the
// range header re-reads storage that every iteration may have moved.
func (w *arenaWalker) rangePrepass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !w.isArenaSource(rs.X) {
			return true
		}
		if pos, by := w.bodyRepack(rs.Body); pos != token.NoPos {
			p := w.pass.Fset().Position(pos)
			w.pass.Reportf(rs.X.Pos(),
				"ranging over an arena-backed slice while the loop body may repack the arena (%s at %s:%d): iterate by index and re-derive, or copy the slots first (//sapla:retain <reason> to override)",
				by, filepath.Base(p.Filename), p.Line)
		}
		return true
	})
}

// bodyRepack returns the first may-repack call inside the loop body.
func (w *arenaWalker) bodyRepack(body *ast.BlockStmt) (token.Pos, string) {
	pos, by := token.NoPos, ""
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, repacks := w.mayRepack(call); repacks {
				pos, by = call.Pos(), name
				return false
			}
		}
		return true
	})
	return pos, by
}

// transfer interprets one leaf statement or control-flow operand.
func (w *arenaWalker) transfer(n ast.Node, fs flowState) {
	st := fs.(*arenaState)
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(n, st)
	case *ast.ReturnStmt:
		w.scanEvents(n, st, nil)
		for _, res := range n.Results {
			if w.evalArena(res, st).derived {
				w.pass.Reportf(res.Pos(),
					"arena-backed slice escapes via return: it aliases %s storage that the next repack invalidates — return a copy (//sapla:retain <reason> to override)",
					arenaTypeName)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.scanEvents(vs.Values[i], st, nil)
							if v, ok := w.info.Defs[name].(*types.Var); ok {
								st.vars[v] = w.evalArena(vs.Values[i], st)
							}
						}
					}
				}
			}
		}
	default:
		w.scanEvents(n, st, nil)
	}
}

// assign: events and use checks on the RHS, then strong updates / escape
// checks on the LHS.
func (w *arenaWalker) assign(n *ast.AssignStmt, st *arenaState) {
	skip := make(map[*ast.Ident]bool)
	for _, lhs := range n.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			skip[id] = true
		}
	}
	w.scanEvents(n, st, skip)

	tuple := len(n.Lhs) > 1 && len(n.Rhs) == 1
	for i, lhs := range n.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			v, ok := objOf(w.info, id).(*types.Var)
			if !ok {
				continue
			}
			var f arenaFact
			if !tuple && i < len(n.Rhs) && (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) {
				f = w.evalArena(n.Rhs[i], st)
			}
			if v.Parent() == w.pkgScope && f.derived {
				w.pass.Reportf(lhs.Pos(),
					"arena-backed slice stored in package variable %s outlives the arena's next repack — store a copy (//sapla:retain <reason> to override)",
					v.Name())
			}
			st.vars[v] = f // strong update
			continue
		}
		if !tuple && i < len(n.Rhs) && w.evalArena(n.Rhs[i], st).derived {
			w.pass.Reportf(lhs.Pos(),
				"arena-backed slice stored in %s outlives the arena's next repack — store a copy of the values (//sapla:retain <reason> to override)",
				renderExpr(lhs))
		}
	}
}

// scanEvents walks a leaf in evaluation order, checking stale uses and
// applying repack effects. Call arguments are processed before the call's
// own repack effect lands (arguments are evaluated first at runtime), and
// identifiers in skip (assignment LHS) are not use-checked.
func (w *arenaWalker) scanEvents(n ast.Node, st *arenaState, skip map[*ast.Ident]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.scanEvents(node.Fun, st, skip)
			for _, arg := range node.Args {
				w.scanEvents(arg, st, skip)
			}
			if name, repacks := w.mayRepack(node); repacks {
				w.applyRepack(st, node.Pos(), name)
			}
			return false
		case *ast.Ident:
			if skip[node] {
				return true
			}
			w.checkUse(node, st)
		}
		return true
	})
}

// checkUse reports a read of an arena-derived variable after a may-repack
// call invalidated it.
func (w *arenaWalker) checkUse(id *ast.Ident, st *arenaState) {
	v, ok := objOf(w.info, id).(*types.Var)
	if !ok {
		return
	}
	f := st.vars[v]
	if f.derived && f.stale != token.NoPos {
		p := w.pass.Fset().Position(f.stale)
		w.pass.Reportf(id.Pos(),
			"arena-backed slice %s used after %s may have repacked the arena (%s:%d): re-derive it — or mark //sapla:retain <reason> if the call provably cannot move the slot arrays",
			id.Name, f.staleBy, filepath.Base(p.Filename), p.Line)
	}
}

// applyRepack marks every live arena-derived variable stale.
func (w *arenaWalker) applyRepack(st *arenaState, pos token.Pos, by string) {
	for v, f := range st.vars {
		if f.derived && f.stale == token.NoPos {
			f.stale, f.staleBy = pos, by
			st.vars[v] = f
		}
	}
}

// mayRepack classifies a call: true when it is a repack primitive itself or
// any resolved callee's summary carries EffMayRepack.
func (w *arenaWalker) mayRepack(call *ast.CallExpr) (string, bool) {
	name := "a call"
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		name = sel.Sel.Name
		if isArenaType(typeOf(w.info, sel.X)) {
			switch sel.Sel.Name {
			case "alloc", "reserve", "reset":
				return name, true
			}
		}
		if sel.Sel.Name == "Compact" {
			return name, true
		}
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		name = id.Name
	}
	for _, callee := range w.ip.Callees(w.info, call) {
		if sum := w.ip.Summary(callee); sum != nil && sum.Effects&EffMayRepack != 0 {
			return name, true
		}
	}
	return name, false
}

// evalArena evaluates an expression's provenance: arena method calls
// returning slices and slice-typed arena field reads are derived;
// identifiers carry their tracked fact; reslicing keeps provenance; append
// takes its destination's; indexing extracts a scalar and drops it.
func (w *arenaWalker) evalArena(e ast.Expr, st *arenaState) arenaFact {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := objOf(w.info, e).(*types.Var); ok {
			return st.vars[v]
		}
	case *ast.SliceExpr:
		return w.evalArena(e.X, st)
	case *ast.SelectorExpr:
		if isArenaType(typeOf(w.info, e.X)) && isSliceType(typeOf(w.info, e)) {
			return arenaFact{derived: true}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := objOf(w.info, id).(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
				return w.evalArena(e.Args[0], st)
			}
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if isArenaType(typeOf(w.info, sel.X)) && isSliceType(typeOf(w.info, e)) {
				return arenaFact{derived: true}
			}
		}
	}
	return arenaFact{}
}

// isArenaSource matches a direct arena source expression (no variable in
// between): an arena method call returning a slice, an arena field read, or
// a reslice of either.
func (w *arenaWalker) isArenaSource(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return w.isArenaSource(e.X)
	case *ast.SelectorExpr:
		return isArenaType(typeOf(w.info, e.X)) && isSliceType(typeOf(w.info, e))
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			return isArenaType(typeOf(w.info, sel.X)) && isSliceType(typeOf(w.info, e))
		}
	}
	return false
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// renderExpr renders a write target for a message: the selector path when
// simple, a placeholder otherwise.
func renderExpr(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + renderExpr(e.X)
	}
	return "a long-lived location"
}
