package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Effect is a bitset of the side effects a function may perform, directly
// or through any module-internal callee.
type Effect uint16

const (
	// EffWALAppend: appends a record to the durable WAL (an Append* method
	// on a type named Store).
	EffWALAppend Effect = 1 << iota
	// EffRespWrite: writes an HTTP response (Write/WriteHeader on a
	// ResponseWriter interface value).
	EffRespWrite
	// EffMutate: mutates the serving index (Insert/Delete on a type named
	// ConcurrentIndex).
	EffMutate
)

// ackClass classifies whether a response write acknowledges success. The
// lattice order used by ackJoin is ackNo < ackParam < ackUnknown < ackYes.
type ackClass uint8

const (
	// ackNo: every observed status is a constant >= 300 (an error reply).
	ackNo ackClass = iota
	// ackParam: the status is the function's param-th parameter; call sites
	// fold their argument through it.
	ackParam
	// ackUnknown: the status cannot be resolved; treated as an ack.
	ackUnknown
	// ackYes: some observed status is a constant < 300 (a success reply).
	ackYes
)

// ackInfo is the acknowledgement classification of a function's response
// writes.
type ackInfo struct {
	class ackClass
	param int // parameter index, when class == ackParam
}

// acks reports whether a call folding to this info may acknowledge success.
func (a ackInfo) acks() bool { return a.class == ackYes || a.class == ackUnknown }

// ackJoin merges two classifications conservatively: any possible ack wins;
// two different parameter positions degrade to unknown.
func ackJoin(a, b ackInfo) ackInfo {
	if a.class == ackYes || b.class == ackYes {
		return ackInfo{class: ackYes}
	}
	if a.class == ackUnknown || b.class == ackUnknown {
		return ackInfo{class: ackUnknown}
	}
	if a.class == ackParam && b.class == ackParam {
		if a.param == b.param {
			return a
		}
		return ackInfo{class: ackUnknown}
	}
	if a.class == ackParam {
		return a
	}
	if b.class == ackParam {
		return b
	}
	return ackInfo{class: ackNo}
}

// Summary is one function's interprocedural effect summary: what it may do
// directly or through any module-internal callee it statically reaches.
type Summary struct {
	// Effects is the transitive effect set.
	Effects Effect
	// Ack classifies the function's response writes (meaningful only when
	// Effects has EffRespWrite).
	Ack ackInfo
	// ValidParams is a bitset of parameter indices the function validates:
	// the parameter is passed to a ValidateSeries-style content check
	// (directly or through a callee's ValidParams), or — for basic-typed
	// parameters — explicitly compared in a binary expression (the ID/shape
	// check idiom: `if k <= 0 || k > max`). taintflow treats passing a value
	// through such a position as a sanitizer.
	ValidParams uint32
	// SinkParams is a bitset of parameter indices that flow into a taint
	// sink — an Insert* index method, an Append* method on a Store, or a
	// slice-length allocation — directly or through a callee. taintflow
	// masks it with ValidParams at call sites: a function that validates a
	// parameter before sinking it is a barrier, not a conduit.
	SinkParams uint32
}

// Summary returns fn's effect summary, or nil for functions outside the
// module (or without bodies).
func (ip *Interproc) Summary(fn *types.Func) *Summary {
	return ip.summaries[fn]
}

// computeSummaries runs the forward dataflow fixpoint: each round re-walks
// every function body folding callee summaries at call sites, until no
// summary grows. Effects and parameter bits only ever grow and the ack
// lattice has height 3, so the fixpoint terminates in a handful of rounds.
func (ip *Interproc) computeSummaries() {
	for _, fi := range ip.order {
		ip.summaries[fi.Fn] = &Summary{}
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range ip.order {
			if ip.updateSummary(fi) {
				changed = true
			}
		}
	}
}

// updateSummary recomputes one function's summary from its body and the
// current summaries of its callees, reporting whether it grew.
func (ip *Interproc) updateSummary(fi *FuncInfo) bool {
	s := ip.summaries[fi.Fn]
	eff := baseEffects(fi)
	ack := ackInfo{class: ackNo}
	var valid, sink uint32

	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				valid |= cmpParamBits(info, fi.Decl, n)
			}
		case *ast.CallExpr:
			if respAck, ok := respWrite(info, fi.Decl, n); ok {
				eff |= EffRespWrite
				ack = ackJoin(ack, respAck)
				return true
			}
			if isValidatorCall(n) {
				for _, arg := range n.Args {
					valid |= paramBit(info, fi.Decl, arg)
				}
			}
			if sizes := makeSizeArgs(info, n); len(sizes) > 0 {
				for _, arg := range sizes {
					sink |= paramBit(info, fi.Decl, arg)
				}
			}
			for _, callee := range ip.Callees(info, n) {
				cs := ip.summaries[callee]
				eff |= cs.Effects
				if cs.Effects&EffRespWrite != 0 {
					ack = ackJoin(ack, foldAck(info, fi.Decl, n, cs.Ack))
				}
				if isTaintSink(callee) {
					for _, arg := range n.Args {
						sink |= paramBit(info, fi.Decl, arg)
					}
				}
				for i, arg := range n.Args {
					if i >= 32 {
						break
					}
					if cs.ValidParams&(1<<i) != 0 {
						valid |= paramBit(info, fi.Decl, arg)
					}
					// A parameter the callee validates before sinking is
					// sanitized, not leaked: mask the sink bit.
					if cs.SinkParams&^cs.ValidParams&(1<<i) != 0 {
						sink |= paramBit(info, fi.Decl, arg)
					}
				}
			}
		}
		return true
	})

	grew := false
	if eff|s.Effects != s.Effects {
		s.Effects |= eff
		grew = true
	}
	if j := ackJoin(s.Ack, ack); j != s.Ack {
		s.Ack = j
		grew = true
	}
	if valid|s.ValidParams != s.ValidParams {
		s.ValidParams |= valid
		grew = true
	}
	if sink|s.SinkParams != s.SinkParams {
		s.SinkParams |= sink
		grew = true
	}
	return grew
}

// cmpParamBits maps a binary comparison onto the enclosing function's
// parameter bitset: an explicit comparison of a basic-typed (non-bool)
// parameter is the ID/shape-check idiom, so the parameter counts as
// validated. Composite parameters (slices, structs) never qualify — a length
// or bound check says nothing about their contents.
func cmpParamBits(info *types.Info, enclosing *ast.FuncDecl, cmp *ast.BinaryExpr) uint32 {
	var bits uint32
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		id, ok := ast.Unparen(side).(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok {
			continue
		}
		basic, ok := obj.Type().Underlying().(*types.Basic)
		if !ok || basic.Kind() == types.Bool || basic.Kind() == types.UntypedBool {
			continue
		}
		bits |= paramBit(info, enclosing, id)
	}
	return bits
}

// isValidatorCall matches a call to any function named ValidateSeries —
// tsio.ValidateSeries on the real ingest path, a local model in fixtures.
// Name-based so the recognition works even when the callee lives outside the
// module's call graph.
func isValidatorCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "ValidateSeries"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "ValidateSeries"
	}
	return false
}

// makeSizeArgs returns the length/capacity operands of a make() call for a
// slice, map or channel — the allocation-amplification sink positions — or
// nil when the call is not a make.
func makeSizeArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	b, ok := objOf(info, id).(*types.Builtin)
	if !ok || b.Name() != "make" || len(call.Args) < 2 {
		return nil
	}
	return call.Args[1:]
}

// isTaintSink reports whether fn is a taint sink by identity: an Insert*
// method (the index mutation family) or an Append* method on a type named
// Store (the WAL). Matches by receiver-type and method name the way
// baseEffects does, so fixtures can model the sinks with local types.
func isTaintSink(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if strings.HasPrefix(fn.Name(), "Insert") {
		return true
	}
	return named.Obj().Name() == "Store" && strings.HasPrefix(fn.Name(), "Append")
}

// baseEffects assigns effects declared by a function's own identity rather
// than its body: the WAL append and index mutation primitives are
// recognized by receiver-type and method name so fixtures can model them
// with local types.
func baseEffects(fi *FuncInfo) Effect {
	fn := fi.Fn
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return 0
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0
	}
	switch named.Obj().Name() {
	case "Store":
		if len(fn.Name()) > 6 && fn.Name()[:6] == "Append" {
			return EffWALAppend
		}
	case "ConcurrentIndex":
		if fn.Name() == "Insert" || fn.Name() == "InsertBatch" || fn.Name() == "Delete" {
			return EffMutate
		}
	}
	return 0
}

// paramBit maps an argument expression back onto the enclosing function's
// parameter bitset: an argument that is parameter i yields bit i, so call
// sites can fold per-parameter facts through, the way foldAck folds status
// parameters.
func paramBit(info *types.Info, enclosing *ast.FuncDecl, arg ast.Expr) uint32 {
	id, ok := ast.Unparen(arg).(*ast.Ident)
	if !ok || enclosing == nil {
		return 0
	}
	obj, ok := info.Uses[id].(*types.Var)
	if !ok {
		return 0
	}
	if idx := paramIndex(info, enclosing, obj); idx >= 0 && idx < 32 {
		return 1 << idx
	}
	return 0
}

// respWrite matches w.Write(...)/w.WriteHeader(code) where w's type is an
// interface named ResponseWriter (net/http's, or a fixture's local one),
// classifying the acknowledgement from the status argument.
func respWrite(info *types.Info, enclosing *ast.FuncDecl, call *ast.CallExpr) (ackInfo, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ackInfo{}, false
	}
	if sel.Sel.Name != "Write" && sel.Sel.Name != "WriteHeader" {
		return ackInfo{}, false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return ackInfo{}, false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok || !types.IsInterface(named) || named.Obj().Name() != "ResponseWriter" {
		return ackInfo{}, false
	}
	if sel.Sel.Name == "Write" {
		// A body write without an explicit status is an implicit 200, but
		// through a generic Write we cannot see intent; treat as unknown.
		return ackInfo{class: ackUnknown}, true
	}
	if len(call.Args) != 1 {
		return ackInfo{class: ackUnknown}, true
	}
	return classifyStatus(info, enclosing, call.Args[0]), true
}

// foldAck folds a callee's acknowledgement through one call site: when the
// callee's status is its param-th parameter, classify the argument actually
// passed there.
func foldAck(info *types.Info, enclosing *ast.FuncDecl, call *ast.CallExpr, callee ackInfo) ackInfo {
	if callee.class != ackParam {
		return callee
	}
	if callee.param >= len(call.Args) {
		return ackInfo{class: ackUnknown}
	}
	return classifyStatus(info, enclosing, call.Args[callee.param])
}

// classifyStatus classifies a status-code expression: constants split at
// 300 (success acks, errors do not), a reference to the enclosing
// function's parameter defers to call sites, anything else is unknown.
func classifyStatus(info *types.Info, enclosing *ast.FuncDecl, arg ast.Expr) ackInfo {
	if tv, ok := info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, ok := constant.Int64Val(tv.Value); ok {
			if v < 300 {
				return ackInfo{class: ackYes}
			}
			return ackInfo{class: ackNo}
		}
	}
	if id, ok := ast.Unparen(arg).(*ast.Ident); ok && enclosing != nil {
		if obj, ok := info.Uses[id].(*types.Var); ok {
			if idx := paramIndex(info, enclosing, obj); idx >= 0 {
				return ackInfo{class: ackParam, param: idx}
			}
		}
	}
	return ackInfo{class: ackUnknown}
}

// paramIndex returns obj's position in the function's parameter list, or -1.
func paramIndex(info *types.Info, fd *ast.FuncDecl, obj *types.Var) int {
	if fd.Type.Params == nil {
		return -1
	}
	idx := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if info.Defs[name] == obj {
				return idx
			}
			idx++
		}
		if len(field.Names) == 0 {
			idx++
		}
	}
	return -1
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

// typeOf is info.Types[e].Type, tolerating missing entries.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// objOf resolves an identifier through Uses then Defs.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// rootVar returns the variable at the root of a write target: x in x.f = v,
// x[i] = v, *x = v and chains thereof. Package-level and field selectors
// resolve to the base identifier's object.
func rootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := objOf(info, x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}
