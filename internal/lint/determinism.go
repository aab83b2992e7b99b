package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DeterminismAnalyzer guards the worker-count-independence contract of the
// evaluation harness and the index (the eval determinism tests assert
// byte-identical output for any Options.Workers; the batch k-NN engine
// promises identical answers for any pool size). In those packages it flags
// the two classic sources of run-to-run variation:
//
//   - map-range loops whose body writes to state declared outside the loop
//     in an order-sensitive way (append, plain assignment, floating-point
//     accumulation — float addition does not reassociate). Writes that
//     cannot observe iteration order — integer counters, keyed map writes —
//     pass.
//   - wall-clock and randomness: time.Now and any use of math/rand.
//     Deliberate uses (timing measurements reported as such, fixed-seed
//     generators) carry a //sapla:nondet <reason> directive.
//
// The check applies to packages whose import path ends in /eval, /index or
// /pqueue — pqueue's heap orders the index's search frontier and seeds,
// which decide what a search refines and so the work it reports, so it sits
// under the same contract as the engines built on it.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Run:  runDeterminism,
}

// determinismScoped reports whether the package is under the determinism
// contract.
func determinismScoped(path string) bool {
	for _, seg := range []string{"/eval", "/index", "/pqueue"} {
		if strings.HasSuffix(path, seg) || strings.Contains(path, seg+"/") {
			return true
		}
	}
	return false
}

func runDeterminism(p *Pass) {
	if !determinismScoped(p.Pkg.Path) {
		return
	}
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkClockAndRand(p, info, n)
			case *ast.RangeStmt:
				if isMapExpr(info, n.X) {
					checkMapRange(p, info, n)
				}
			}
			return true
		})
	}
}

// checkClockAndRand flags time.Now and every math/rand selector. Type
// references (a *rand.Rand parameter, say) pass: only evaluating a clock or
// a generator introduces nondeterminism, not naming its type.
func checkClockAndRand(p *Pass, info *types.Info, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	if tv, ok := info.Types[sel]; ok && tv.IsType() {
		return
	}
	switch path := pn.Imported().Path(); {
	case path == "time" && sel.Sel.Name == "Now":
		p.Reportf(sel.Pos(), "time.Now in deterministic package; results must not depend on the wall clock")
	case path == "math/rand" || path == "math/rand/v2":
		p.Reportf(sel.Pos(), "math/rand use in deterministic package; results must not depend on randomness")
	}
}

// isMapExpr reports whether the ranged expression is a map.
func isMapExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange flags order-sensitive writes to outer state inside a
// map-range body.
func checkMapRange(p *Pass, info *types.Info, rng *ast.RangeStmt) {
	outer := func(id *ast.Ident) types.Object {
		obj := info.Uses[id]
		if obj == nil || obj.Pos() == token.NoPos {
			return nil
		}
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			return nil // declared inside the loop (incl. the key/value vars)
		}
		return obj
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				checkMapRangeWrite(p, info, n, i, lhs, outer)
			}
		case *ast.IncDecStmt:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				if obj := outer(id); obj != nil && isFloatExpr(info, n.X) {
					p.Reportf(n.Pos(),
						"floating-point accumulation into %s under map iteration is order-dependent", id.Name)
				}
			}
		}
		return true
	})
}

// checkMapRangeWrite classifies one assignment target inside a map-range
// body.
func checkMapRangeWrite(p *Pass, info *types.Info, assign *ast.AssignStmt, i int, lhs ast.Expr, outer func(*ast.Ident) types.Object) {
	switch target := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := outer(target)
		if obj == nil || target.Name == "_" {
			return
		}
		switch assign.Tok {
		case token.DEFINE:
			return
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN,
			token.XOR_ASSIGN, token.MUL_ASSIGN:
			// Commutative updates are order-independent on integers but not
			// on floats (rounding depends on accumulation order).
			if isFloatExpr(info, target) {
				p.Reportf(assign.Pos(),
					"floating-point accumulation into %s under map iteration is order-dependent", target.Name)
			}
			return
		}
		// Plain assignment: appends build nondeterministically ordered
		// slices, last-write-wins depends on iteration order.
		if i < len(assign.Rhs) || len(assign.Rhs) == 1 {
			if call, ok := assignRhs(assign, i); ok && isAppendCall(info, call) {
				p.Reportf(assign.Pos(),
					"append to %s under map iteration produces a nondeterministic element order", target.Name)
				return
			}
		}
		p.Reportf(assign.Pos(),
			"assignment to %s under map iteration depends on iteration order", target.Name)
	case *ast.IndexExpr:
		// Keyed map writes are order-independent; slice writes at a
		// position derived from the iteration are not provably ordered.
		if isMapExpr(info, target.X) {
			return
		}
		if id, ok := ast.Unparen(target.X).(*ast.Ident); ok {
			if obj := outer(id); obj != nil {
				p.Reportf(assign.Pos(),
					"write into %s under map iteration depends on iteration order", id.Name)
			}
		}
	}
}

// assignRhs returns the i-th (or only) right-hand side as a call expression.
func assignRhs(assign *ast.AssignStmt, i int) (*ast.CallExpr, bool) {
	var rhs ast.Expr
	if len(assign.Rhs) == 1 {
		rhs = assign.Rhs[0]
	} else if i < len(assign.Rhs) {
		rhs = assign.Rhs[i]
	} else {
		return nil, false
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	return call, ok
}

// isAppendCall reports whether the call is the append builtin.
func isAppendCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}
