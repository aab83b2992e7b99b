package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TaintflowAnalyzer tracks untrusted HTTP input to the storage tier. Every
// value originating from a *http.Request — the body, the URL, path and query
// parameters — is tainted until it passes a recognized sanitizer; a tainted
// value reaching a sink is a finding. The ingest path is a long-lived
// attack/overload surface, not a one-shot request, so the rule is structural:
// nothing the client sent touches the index, the WAL, or an allocation size
// until it has been validated.
//
// Sanitizers:
//   - a call to any function named ValidateSeries (tsio.ValidateSeries on
//     the real path) clears the argument's variable, and the fact folds
//     interprocedurally through the ValidParams summary bitset — a helper
//     that validates its parameter sanitizes its caller's argument;
//   - an explicit comparison of a basic-typed variable (the ID/shape-check
//     idiom `if k <= 0 || k > max`), locally or through a callee's
//     ValidParams comparison bits;
//   - strconv parses (Atoi/Parse*), whose results are shape-checked scalars.
//
// A call that yields a context.Context (r.Context()) is clean: the context
// carries the request's deadline and cancellation, nothing the client wrote,
// so handing it to a helper does not taint what the helper returns.
//
// Sinks: Insert* index methods and Append* methods on a Store (by identity,
// like baseEffects), positions that flow into one through a callee's
// SinkParams bitset (masked by ValidParams — a validate-then-sink helper is
// a barrier, not a conduit), and make() length/capacity operands (allocation
// amplification: a tainted count allocates arbitrarily more than the client
// sent).
//
// The walk is flow-sensitive on the dataflow engine — taint is a may-fact
// joined by union, sanitization is path-local — and it walks function
// literals inline (with a cloned state): taint is a data property, not a
// temporal one, and the fork-join closures on the ingest path run with
// exactly the captured request data. Sanitization is
// whole-variable: validating req.Values clears req — the decoded request is
// admitted as a unit. Deliberate exceptions carry //sapla:untainted <reason>.
var TaintflowAnalyzer = &Analyzer{
	Name: "taintflow",
	Run:  runTaintflow,
}

func runTaintflow(p *Pass) {
	ip := p.Prog.Interproc()
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Type.Params != nil && hasRequestParam(info, fd.Type.Params) {
				walkTaint(p, ip, info, fd.Type.Params, fd.Body)
			}
			// Handler closures (mux.HandleFunc("/x", func(w, r) {...})) are
			// sources of their own, wherever they are built.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && hasRequestParam(info, lit.Type.Params) {
					walkTaint(p, ip, info, lit.Type.Params, lit.Body)
				}
				return true
			})
		}
	}
}

// hasRequestParam reports whether a parameter list declares a *http.Request.
func hasRequestParam(info *types.Info, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		if isRequestType(typeOf(info, field.Type)) {
			return true
		}
	}
	return false
}

// isRequestType matches *net/http.Request.
func isRequestType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// taintState is the may-fact lattice: the variables that may hold
// request-derived data on some path to the current point.
type taintState struct {
	tainted map[*types.Var]bool
}

func (s *taintState) Clone() flowState {
	c := &taintState{tainted: make(map[*types.Var]bool, len(s.tainted))}
	for k := range s.tainted {
		c.tainted[k] = true
	}
	return c
}

func (s *taintState) Join(o flowState) bool {
	other := o.(*taintState)
	changed := false
	for k := range other.tainted {
		if !s.tainted[k] {
			s.tainted[k] = true
			changed = true
		}
	}
	return changed
}

// taintWalker carries one function walk.
type taintWalker struct {
	p       *Pass
	ip      *Interproc
	info    *types.Info
	rangeOf map[ast.Expr]*ast.RangeStmt
}

// walkTaint seeds the request parameters as tainted and runs the engine.
func walkTaint(p *Pass, ip *Interproc, info *types.Info, params *ast.FieldList, body *ast.BlockStmt) {
	w := &taintWalker{p: p, ip: ip, info: info, rangeOf: make(map[ast.Expr]*ast.RangeStmt)}
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			w.rangeOf[rs.X] = rs
		}
		return true
	})
	st := &taintState{tainted: make(map[*types.Var]bool)}
	for _, field := range params.List {
		if !isRequestType(typeOf(w.info, field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if v, ok := w.info.Defs[name].(*types.Var); ok {
				st.tainted[v] = true
			}
		}
	}
	engine := &flowEngine{transfer: w.transfer}
	engine.run(body, st)
}

func (w *taintWalker) transfer(n ast.Node, fs flowState) {
	st := fs.(*taintState)
	switch n := n.(type) {
	case *ast.AssignStmt:
		w.assign(n, st)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					t := false
					if len(vs.Values) == 1 && len(vs.Names) > 1 {
						t = w.eval(vs.Values[0], st)
					} else if i < len(vs.Values) {
						t = w.eval(vs.Values[i], st)
					}
					if v, ok := w.info.Defs[name].(*types.Var); ok {
						setTaint(st, v, t)
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.eval(n.X, st)
	case *ast.SendStmt:
		w.eval(n.Chan, st)
		w.eval(n.Value, st)
	case *ast.IncDecStmt:
		w.eval(n.X, st)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			w.eval(r, st)
		}
	case *ast.GoStmt:
		w.eval(n.Call, st)
	case *ast.DeferStmt:
		w.eval(n.Call, st)
	default:
		if e, ok := n.(ast.Expr); ok {
			t := w.eval(e, st)
			if rs := w.rangeOf[e]; rs != nil && t {
				w.taintRangeVars(rs, st)
			}
		}
	}
}

// taintRangeVars taints the element variables of a range over a tainted
// operand: every element of untrusted data is untrusted. The key of a
// slice/array/string range is a bounded position, not payload, and stays
// clean; map keys and channel elements are data.
func (w *taintWalker) taintRangeVars(rs *ast.RangeStmt, st *taintState) {
	keyIsData := false
	if t := typeOf(w.info, rs.X); t != nil {
		switch t.Underlying().(type) {
		case *types.Map, *types.Chan:
			keyIsData = true
		}
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if e == rs.Key && !keyIsData {
			continue
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if v, ok := objOf(w.info, id).(*types.Var); ok {
			st.tainted[v] = true
		}
	}
}

// assign evaluates the right-hand sides and moves taint onto the targets.
func (w *taintWalker) assign(a *ast.AssignStmt, st *taintState) {
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		t := w.eval(a.Rhs[0], st)
		for _, lhs := range a.Lhs {
			w.setLhs(lhs, t, st)
		}
		return
	}
	for i, rhs := range a.Rhs {
		t := w.eval(rhs, st)
		if a.Tok != token.ASSIGN && a.Tok != token.DEFINE && i < len(a.Lhs) {
			// Compound assignment (+=, |=, …) mixes in the old value.
			t = t || w.eval(a.Lhs[i], st)
		}
		if i < len(a.Lhs) {
			w.setLhs(a.Lhs[i], t, st)
		}
	}
}

// setLhs applies an assignment's taint to a target. A whole-variable write
// sets or clears the variable; a partial write (field, index, deref) can
// only add taint to the root — a clean element does not clean the rest.
func (w *taintWalker) setLhs(lhs ast.Expr, t bool, st *taintState) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if v, ok := objOf(w.info, id).(*types.Var); ok {
			setTaint(st, v, t)
		}
		return
	}
	if t {
		if root := rootVar(w.info, lhs); root != nil {
			st.tainted[root] = true
		}
	}
}

func setTaint(st *taintState, v *types.Var, t bool) {
	if t {
		st.tainted[v] = true
	} else {
		delete(st.tainted, v)
	}
}

// eval computes an expression's taint and applies its side effects:
// sanitizer calls clear variables, sink calls report, output-pointer
// arguments of calls on tainted data become tainted, and function literals
// are walked inline on a cloned state.
func (w *taintWalker) eval(e ast.Expr, st *taintState) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := objOf(w.info, e).(*types.Var)
		return v != nil && st.tainted[v]
	case *ast.SelectorExpr:
		if _, ok := objOf(w.info, e.Sel).(*types.PkgName); ok {
			return false
		}
		if id, ok := e.X.(*ast.Ident); ok {
			if _, ok := objOf(w.info, id).(*types.PkgName); ok {
				return false // pkg.Symbol
			}
		}
		return w.eval(e.X, st)
	case *ast.StarExpr:
		return w.eval(e.X, st)
	case *ast.IndexExpr:
		// Indexing trusted data at an untrusted position yields trusted
		// data (a bad index is a bounds panic, not a payload); the index is
		// still evaluated for its side effects.
		t := w.eval(e.X, st)
		w.eval(e.Index, st)
		return t
	case *ast.SliceExpr:
		return w.eval(e.X, st)
	case *ast.TypeAssertExpr:
		return w.eval(e.X, st)
	case *ast.UnaryExpr:
		return w.eval(e.X, st)
	case *ast.BinaryExpr:
		l := w.eval(e.X, st)
		r := w.eval(e.Y, st)
		switch e.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			// The ID/shape-check idiom: an explicit comparison of a scalar
			// validates it on every path below. The comparison's own result
			// is a clean bool.
			w.clearCheckedScalar(e.X, st)
			w.clearCheckedScalar(e.Y, st)
			return false
		}
		return l || r
	case *ast.CompositeLit:
		t := false
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if w.eval(elt, st) {
				t = true
			}
		}
		return t
	case *ast.FuncLit:
		w.subWalk(e, st)
		return false
	case *ast.CallExpr:
		return w.evalCall(e, st)
	}
	return false
}

// clearCheckedScalar removes taint from a compared variable when it is a
// bare basic-typed identifier — the local bound-check idiom.
func (w *taintWalker) clearCheckedScalar(e ast.Expr, st *taintState) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := objOf(w.info, id).(*types.Var)
	if !ok {
		return
	}
	basic, ok := v.Type().Underlying().(*types.Basic)
	if !ok || basic.Kind() == types.Bool {
		return
	}
	delete(st.tainted, v)
}

// subWalk walks a function literal inline on a cloned state: the closure
// sees the taint captured at its build site, and its findings are real, but
// its local derivations do not leak back out.
func (w *taintWalker) subWalk(lit *ast.FuncLit, st *taintState) {
	sub := &taintWalker{p: w.p, ip: w.ip, info: w.info, rangeOf: make(map[ast.Expr]*ast.RangeStmt)}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			sub.rangeOf[rs.X] = rs
		}
		return true
	})
	engine := &flowEngine{transfer: sub.transfer}
	engine.run(lit.Body, st.Clone())
}

// evalCall is the heart of the analyzer: conversions pass taint through,
// builtins are classified (len/cap launder, make sinks), sanitizers clear
// their arguments, sinks report, and output-pointer arguments of calls on
// tainted data become tainted.
func (w *taintWalker) evalCall(call *ast.CallExpr, st *taintState) bool {
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: taint passes through unchanged.
		t := false
		for _, arg := range call.Args {
			if w.eval(arg, st) {
				t = true
			}
		}
		return t
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, arg := range call.Args {
			w.eval(arg, st)
		}
		w.subWalk(lit, st)
		return false
	}

	// Evaluate operands first (post-order): a nested sanitizer runs before
	// the enclosing sink check sees its argument.
	recvTainted := false
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvTainted = w.eval(sel.X, st)
	}
	argTaint := make([]bool, len(call.Args))
	anyTaint := recvTainted
	for i, arg := range call.Args {
		argTaint[i] = w.eval(arg, st)
		if argTaint[i] {
			anyTaint = true
		}
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := objOf(w.info, id).(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				// The length of already-materialized data is bounded by the
				// request size the server admitted; it is not a taint.
				return false
			case "make":
				for i := 1; i < len(call.Args); i++ {
					if argTaint[i] {
						w.p.Reportf(call.Args[i].Pos(),
							"allocation sized by unvalidated request data (%s): a hostile count allocates arbitrarily more than the client sent — bound-check it first (//sapla:untainted <reason> overrides)",
							renderExpr(call.Args[i]))
					}
				}
				return false
			default:
				return anyTaint
			}
		}
	}

	if isValidatorCall(call) {
		for _, arg := range call.Args {
			w.clearRoot(arg, st)
		}
		return false
	}
	if isStrconvParse(w.info, call) {
		return false // a parsed scalar is shape-checked by construction
	}
	if isContextType(typeOf(w.info, call)) {
		return false // r.Context() carries the deadline and cancellation, no payload
	}

	callees := w.ip.Callees(w.info, call)
	for _, callee := range callees {
		cs := w.ip.Summary(callee)
		if cs == nil {
			continue
		}
		var sinkBits uint32
		if isTaintSink(callee) {
			sinkBits = ^uint32(0)
		} else {
			sinkBits = cs.SinkParams &^ cs.ValidParams
		}
		for i, arg := range call.Args {
			if i >= 32 {
				break
			}
			if sinkBits&(1<<i) != 0 && argTaint[i] {
				w.p.Reportf(arg.Pos(),
					"unvalidated request data (%s) reaches %s: run it through tsio.ValidateSeries or an ID/shape check first (//sapla:untainted <reason> overrides)",
					renderExpr(arg), callee.Name())
			}
		}
		// Validation folds through after the sink check: a callee that
		// validates a parameter sanitizes the caller's argument from here on.
		if cs.ValidParams != 0 {
			for i, arg := range call.Args {
				if i < 32 && cs.ValidParams&(1<<i) != 0 {
					w.clearRoot(arg, st)
				}
			}
		}
	}

	// A call on tainted data that takes &x fills x with request-derived
	// data: decodeBody(w, r, &req), dec.Decode(&v).
	if anyTaint {
		for _, arg := range call.Args {
			u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				continue
			}
			if root := rootVar(w.info, u.X); root != nil {
				st.tainted[root] = true
			}
		}
	}
	return anyTaint
}

// clearRoot removes the taint of an argument's root variable: validation
// admits the decoded value as a unit.
func (w *taintWalker) clearRoot(arg ast.Expr, st *taintState) {
	e := ast.Unparen(arg)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if root := rootVar(w.info, e); root != nil {
		delete(st.tainted, root)
	}
}

// isStrconvParse matches strconv.Atoi / strconv.Parse* — scalar parses whose
// results are shape-checked by construction (they are numbers or bools, not
// payloads).
func isStrconvParse(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "strconv" {
		return false
	}
	return sel.Sel.Name == "Atoi" || strings.HasPrefix(sel.Sel.Name, "Parse")
}

// renderExpr renders a tainted operand for a message: the selector path when
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
	return "an expression"
}
