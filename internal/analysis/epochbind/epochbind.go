// Package epochbind reports index acquisitions whose epoch is a
// compile-time constant. The cross-batch index cache holds one
// generation, bound to the (graph pair, epoch) its batches pass and
// replaced when the epoch moves; an epoch that does not come
// from the live store.Snapshot pins the binding to one generation
// forever, so queries after an update are served stale distance maps —
// the exact staleness class the versioned store closed.
//
// Checked sites, outside _test.go files:
//
//   - the epoch argument of any hcindex Acquire or AcquireOne method
//     (Provider/Cache/Builder all share the two signatures);
//   - an explicit Epoch key in a batchenum.Options composite literal;
//   - an assignment to an Options.Epoch field.
//
// Deriving the value — snap.Epoch(), a variable, a struct field — is
// fine; only constants are flagged. A static-graph engine expresses
// "epoch zero, forever" by omitting the field, never by writing 0.
package epochbind

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/analysis"
)

const (
	hcindexPkg   = "repro/internal/hcindex"
	batchenumPkg = "repro/internal/batchenum"
)

// Analyzer is the epochbind analysis.
var Analyzer = &analysis.Analyzer{
	Name: "epochbind",
	Doc:  "index epochs must derive from a store.Snapshot, never a constant",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkAcquire(pass, n)
			case *ast.CompositeLit:
				checkOptionsLit(pass, n)
			case *ast.AssignStmt:
				checkEpochAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkAcquire flags constant epoch arguments of hcindex Acquire and
// AcquireOne calls.
func checkAcquire(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != hcindexPkg || (fn.Name() != "Acquire" && fn.Name() != "AcquireOne") {
		return
	}
	// Acquire(g, gr, epoch, queries), AcquireOne(g, gr, epoch, q): epoch
	// is the third argument.
	if len(call.Args) < 3 {
		return
	}
	reportConstEpoch(pass, call.Args[2], "epoch argument of hcindex "+fn.Name())
}

// checkOptionsLit flags an explicit constant Epoch key in a
// batchenum.Options literal.
func checkOptionsLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || !analysis.IsNamed(tv.Type, batchenumPkg, "Options") {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Epoch" {
			reportConstEpoch(pass, kv.Value, "Epoch field of batchenum.Options")
		}
	}
}

// checkEpochAssign flags `opts.Epoch = <const>` on batchenum.Options.
func checkEpochAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Epoch" || i >= len(as.Rhs) {
			continue
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !analysis.IsNamed(tv.Type, batchenumPkg, "Options") {
			continue
		}
		reportConstEpoch(pass, as.Rhs[i], "Epoch field of batchenum.Options")
	}
}

// reportConstEpoch flags expr when the type checker evaluated it to a
// constant — a literal, a named constant, or constant arithmetic.
func reportConstEpoch(pass *analysis.Pass, expr ast.Expr, what string) {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Value == nil {
		return
	}
	pass.Reportf(expr.Pos(),
		"constant %s as %s: bind the epoch to the live snapshot (store.Snapshot.Epoch()) so cache generations follow updates; omit the field entirely for a static graph",
		tv.Value, what)
}
