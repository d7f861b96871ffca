// Package statsmerge enforces struct-field exhaustiveness on stats
// merge and accumulate functions, ending silent counter drift: a field
// added to a stats struct but forgotten in its merge path compiles and
// runs, under-reporting forever (PR 5 wired Plan and Shed through the
// service totals by hand — exactly the step this analyzer makes
// mandatory).
//
// Two ways a function becomes a merge function:
//
//   - implicitly: a method named Add or Merge whose single parameter
//     has the same struct type as its receiver;
//   - explicitly: a //hcpath:mergefields TypeName directive in the
//     function's doc comment.
//
// Every field of the struct must then be mentioned in the function body
// (a selector on a value of the type, or a key in a composite literal
// of the type). Deliberate omissions are spelled out on the directive
// as -Field exclusions — e.g.
//
//	//hcpath:mergefields Totals -Epoch -Shed
//
// so the omission is visible and reviewed instead of accidental. An
// exclusion for a field the function does touch is itself reported as
// stale, keeping the lists minimal.
package statsmerge

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the statsmerge analysis.
var Analyzer = &analysis.Analyzer{
	Name: "statsmerge",
	Doc:  "stats merge functions must touch every struct field or exclude it explicitly",
	Run:  run,
}

const directive = "mergefields"

// check is one exhaustiveness obligation of one function.
type check struct {
	typ      *types.Named
	excluded map[string]bool
	explicit bool // from a directive (exclusions allowed)
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	checks := directiveChecks(pass, fd)
	if im := implicitCheck(pass, fd); im != nil {
		if _, dup := checks[im.typ.Obj().Name()]; !dup {
			checks[im.typ.Obj().Name()] = im
		}
	}
	if len(checks) == 0 {
		return
	}
	for _, c := range checks {
		verify(pass, fd, c)
	}
}

// directiveChecks parses every //hcpath:mergefields line of fd's doc.
func directiveChecks(pass *analysis.Pass, fd *ast.FuncDecl) map[string]*check {
	out := make(map[string]*check)
	if fd.Doc == nil {
		return out
	}
	for _, cm := range fd.Doc.List {
		rest, found := strings.CutPrefix(cm.Text, "//hcpath:"+directive)
		if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			pass.Reportf(cm.Pos(), "//hcpath:%s needs a struct type name", directive)
			continue
		}
		obj := pass.Pkg.Scope().Lookup(fields[0])
		tn, ok := obj.(*types.TypeName)
		if !ok {
			pass.Reportf(cm.Pos(), "//hcpath:%s %s: no such type in %s", directive, fields[0], pass.Pkg.Name())
			continue
		}
		// Unalias so a directive can also name a package-local alias of
		// a struct declared elsewhere.
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok || !isStruct(named) {
			pass.Reportf(cm.Pos(), "//hcpath:%s %s: not a struct type", directive, fields[0])
			continue
		}
		c := &check{typ: named, excluded: make(map[string]bool), explicit: true}
		for _, ex := range fields[1:] {
			name, ok := strings.CutPrefix(ex, "-")
			if !ok {
				pass.Reportf(cm.Pos(), "//hcpath:%s %s: exclusions must be written -Field, got %q", directive, fields[0], ex)
				continue
			}
			if !hasField(named, name) {
				pass.Reportf(cm.Pos(), "//hcpath:%s %s: unknown excluded field %s", directive, fields[0], name)
				continue
			}
			c.excluded[name] = true
		}
		out[fields[0]] = c
	}
	return out
}

// implicitCheck recognises the canonical merge shape: method Add/Merge
// with one parameter of the receiver's own struct type.
func implicitCheck(pass *analysis.Pass, fd *ast.FuncDecl) *check {
	if fd.Recv == nil || (fd.Name.Name != "Add" && fd.Name.Name != "Merge") {
		return nil
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 {
		return nil
	}
	recv, ok := analysis.Deref(sig.Recv().Type()).(*types.Named)
	if !ok || !isStruct(recv) || recv.Obj().Pkg() != pass.Pkg {
		return nil
	}
	param, ok := analysis.Deref(sig.Params().At(0).Type()).(*types.Named)
	if !ok || param.Obj() != recv.Obj() {
		return nil
	}
	return &check{typ: recv, excluded: make(map[string]bool)}
}

// verify walks fd's body and reports fields of c.typ that are neither
// touched nor excluded, plus exclusions the body contradicts.
func verify(pass *analysis.Pass, fd *ast.FuncDecl, c *check) {
	touched := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel := pass.TypesInfo.Selections[n]
			if sel == nil || sel.Kind() != types.FieldVal {
				return true
			}
			if recv, ok := types.Unalias(analysis.Deref(sel.Recv())).(*types.Named); ok && recv.Obj() == c.typ.Obj() {
				touched[n.Sel.Name] = true
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			named, ok := types.Unalias(analysis.Deref(tv.Type)).(*types.Named)
			if !ok || named.Obj() != c.typ.Obj() {
				return true
			}
			st := named.Underlying().(*types.Struct)
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						touched[key.Name] = true
					}
				} else if i < st.NumFields() {
					touched[st.Field(i).Name()] = true // positional literal
				}
			}
		}
		return true
	})

	name := c.typ.Obj().Name()
	st := c.typ.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		fname := st.Field(i).Name()
		switch {
		case touched[fname] && c.excluded[fname]:
			pass.Reportf(fd.Name.Pos(),
				"stale exclusion: %s merges field %s of %s but the directive excludes it; drop -%s",
				fd.Name.Name, fname, name, fname)
		case !touched[fname] && !c.excluded[fname]:
			pass.Reportf(fd.Name.Pos(),
				"%s does not merge field %s of %s; accumulate it, or record the deliberate omission with //hcpath:mergefields %s -%s",
				fd.Name.Name, fname, name, name, fname)
		}
	}
}

func isStruct(n *types.Named) bool {
	_, ok := n.Underlying().(*types.Struct)
	return ok
}

func hasField(n *types.Named, name string) bool {
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return true
		}
	}
	return false
}
