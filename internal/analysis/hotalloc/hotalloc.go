// Package hotalloc verifies that functions annotated
//
//	//hcpath:noalloc
//
// contain no allocating constructs, seeding the ROADMAP's
// allocation-free hot-path work with a static gate (the tier-1
// testing.AllocsPerRun ceilings on the engine, MS-BFS and wire kernels
// are the dynamic half of the pair).
//
// Flagged inside an annotated function:
//
//   - make and new;
//   - slice and map composite literals, and address-taken composite
//     literals (&T{...} always escapes to the heap);
//   - append whose destination differs from its source — x = append(x,
//     ...) into a retained buffer is amortised allocation-free, any
//     other shape grows a fresh backing array;
//   - map writes (insertion can grow the table);
//   - string concatenation and any call into package fmt;
//   - function literals and go statements;
//   - calls to same-package functions not themselves annotated
//     //hcpath:noalloc, so the guarantee composes instead of stopping
//     at the first helper.
//
// Calls across package boundaries and through interfaces are trusted —
// the annotation documents a reviewed local property, not a
// whole-program escape analysis.
package hotalloc

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the hotalloc analysis.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "//hcpath:noalloc functions must not allocate",
	Run:  run,
}

const directive = "noalloc"

func run(pass *analysis.Pass) error {
	// Prepass: the package's annotated set, so noalloc functions may
	// call each other.
	annotated := make(map[*types.Func]bool)
	var targets []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := analysis.FuncDirective(fd, directive); !ok {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				annotated[obj] = true
			}
			targets = append(targets, fd)
		}
	}
	for _, fd := range targets {
		checkFunc(pass, fd, annotated)
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, annotated map[*types.Func]bool) {
	// Appends blessed by their assignment shape (x = append(x, ...)).
	okAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(pass.TypesInfo, call, "append") || len(call.Args) == 0 {
				continue
			}
			if exprText(pass, as.Lhs[i]) == exprText(pass, call.Args[0]) {
				okAppend[call] = true
			}
		}
		return true
	})

	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s is //hcpath:noalloc but creates a closure (function literals allocate)", name)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is //hcpath:noalloc but starts a goroutine", name)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "%s is //hcpath:noalloc but takes the address of a composite literal (escapes to the heap)", name)
					return false
				}
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "%s is //hcpath:noalloc but builds a slice literal", name)
			case *types.Map:
				pass.Reportf(n.Pos(), "%s is //hcpath:noalloc but builds a map literal", name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pass.TypesInfo.Types[n]; ok {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "%s is //hcpath:noalloc but concatenates strings", name)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				if tv, ok := pass.TypesInfo.Types[idx.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(lhs.Pos(), "%s is //hcpath:noalloc but writes to a map (insertion can grow the table)", name)
					}
				}
			}
		case *ast.CallExpr:
			checkCall(pass, fd, n, annotated, okAppend)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, annotated map[*types.Func]bool, okAppend map[*ast.CallExpr]bool) {
	name := fd.Name.Name
	switch {
	case isBuiltin(pass.TypesInfo, call, "make"):
		pass.Reportf(call.Pos(), "%s is //hcpath:noalloc but calls make", name)
		return
	case isBuiltin(pass.TypesInfo, call, "new"):
		pass.Reportf(call.Pos(), "%s is //hcpath:noalloc but calls new", name)
		return
	case isBuiltin(pass.TypesInfo, call, "append"):
		if !okAppend[call] {
			pass.Reportf(call.Pos(), "%s is //hcpath:noalloc but appends to a destination other than its source; only x = append(x, ...) into a retained buffer is amortised allocation-free", name)
		}
		return
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return // builtin, conversion, or function-typed value: out of scope
	}
	if fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "%s is //hcpath:noalloc but calls fmt.%s", name, fn.Name())
		return
	}
	if fn.Pkg() != pass.Pkg {
		return // cross-package calls are trusted
	}
	if isInterfaceMethod(pass.TypesInfo, call) {
		return // dynamic dispatch is trusted like a package boundary
	}
	if !annotated[fn] {
		pass.Reportf(call.Pos(), "%s is //hcpath:noalloc but calls %s, which is not annotated //hcpath:noalloc", name, fn.Name())
	}
}

// isInterfaceMethod reports whether call dispatches through an
// interface value.
func isInterfaceMethod(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return false
	}
	_, ok = s.Recv().Underlying().(*types.Interface)
	return ok
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func exprText(pass *analysis.Pass, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, pass.Fset, e); err != nil {
		return "?!"
	}
	return buf.String()
}
