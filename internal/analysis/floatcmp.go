package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// kernelMarker in a function's doc comment exempts that function from
// floatcmp: it declares a numerical kernel whose exact float comparisons
// (sparsity skips like `if v == 0 { continue }`, sentinel checks) are
// deliberate and analyzed for correctness.
const kernelMarker = "fdx:numeric-kernel"

// FloatCmp flags == and != between floating-point operands. Exact equality
// on float64 is almost never what numerical code means — Graphical Lasso
// iterates and UDUᵀ pivots differ across architectures and
// optimization levels at the last ulp, so exact comparisons silently change
// discovery results. Compare with a tolerance, or annotate the enclosing
// function with "fdx:numeric-kernel" when exactness is the point.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flags ==/!= on floating-point operands outside annotated numeric kernels",
	Run:  runFloatCmp,
	// Determinism tests assert bit-exact reproducibility; exact comparison
	// is their purpose, not a bug.
	SkipTestFiles: true,
}

func runFloatCmp(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.Info, be.X) && !isFloat(pass.Info, be.Y) {
				return true
			}
			if strings.Contains(enclosingFuncDoc(pass.Files, be.Pos()), kernelMarker) {
				return true
			}
			pass.ReportRangef(be, be.OpPos, "floating-point %s comparison; use a tolerance (e.g. math.Abs(a-b) <= eps) or mark the function fdx:numeric-kernel", be.Op)
			return true
		})
	}
}

// isFloat reports whether the expression has floating-point or complex type
// (including named types whose underlying type is a float).
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsFloat|types.IsComplex) != 0
}
