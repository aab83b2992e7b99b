package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatcmpAnalyzer flags == and != on floating-point operands. Exact float
// equality is almost always a latent bug in a codebase whose core quantities
// are least-squares fits and distance bounds: values that are mathematically
// equal differ after reassociation, and a comparison that works on one
// dataset silently misbehaves on another. The rare sound uses — sentinel
// zeros, exact tie-breaks on values copied from the same computation — carry
// a //sapla:floateq <reason> directive.
var FloatcmpAnalyzer = &Analyzer{
	Name: "floatcmp",
	Run:  runFloatcmp,
}

func runFloatcmp(p *Pass) {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if isFloatExpr(info, be.X) || isFloatExpr(info, be.Y) {
				p.Reportf(be.OpPos,
					"floating-point %s comparison; compare with a tolerance or annotate //sapla:floateq",
					be.Op)
			}
			return true
		})
	}
}

// isFloatExpr reports whether the expression has floating-point (or complex)
// type, including named types with a float underlying type.
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
