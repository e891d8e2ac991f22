package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NameKey flags map lookups, stores and deletes keyed by an ndn.Name
// rendered on the spot: m[name.String()], delete(m, name.String()), and the
// same through a local (key := name.String(); m[key]). Name.String builds a
// fresh URI string every call, so a table indexed that way pays two or
// three allocations per lookup per receiver per handler. The pattern was
// removed from the nfd tables once (name tree) and from core and multihop
// once (docs/PERFORMANCE.md "Completion and name keys", where it was 44% of
// a trial's heap objects); this analyzer keeps it out (docs/CONTRACTS.md §4).
// Rendering a name for a payload, a log line or an error is not flagged —
// only its use as a map key is.
var NameKey = &Analyzer{
	Name: "namekey",
	Doc: "In simulation-path packages a map must not be keyed by ndn.Name.String() " +
		"built at the lookup: use the packet's memoised NameKey(), a key stored when " +
		"the entry was created, or m[string(name.AppendURI(buf[:0]))].",
	Run: runNameKey,
}

func runNameKey(pass *Pass) error {
	if !onSimPath(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		// Locals assigned straight from a Name.String() call.
		rendered := map[types.Object]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok || !isNameStringCall(pass, rhs) {
					continue
				}
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					rendered[obj] = true
				}
			}
			return true
		})
		isKey := func(e ast.Expr) bool {
			if id, ok := e.(*ast.Ident); ok {
				return rendered[pass.TypesInfo.ObjectOf(id)]
			}
			return isNameStringCall(pass, e)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var key ast.Expr
			var pos token.Pos
			switch n := n.(type) {
			case *ast.IndexExpr:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						key, pos = n.Index, n.Pos()
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 2 {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
						key, pos = n.Args[1], n.Pos()
					}
				}
			}
			if key != nil && isKey(key) {
				pass.Reportf(pos,
					"map keyed by ndn.Name.String() built at the lookup; use the packet's memoised NameKey(), a key stored when the entry was created, or m[string(name.AppendURI(buf[:0]))]")
			}
			return true
		})
	}
	return nil
}

// isNameStringCall reports whether expr is x.String() with x an ndn.Name.
func isNameStringCall(pass *Pass, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "String" {
		return false
	}
	named, ok := pass.TypesInfo.TypeOf(sel.X).(*types.Named)
	return ok && named.Obj().Name() == "Name" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == ndnPath
}
