package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HandleHygiene flags code that stores a *sim.Event in a struct field or a
// package-level variable. The kernel recycles event records aggressively
// (fired and canceled events go straight to a free list and are reused for
// unrelated callbacks), so a stored raw pointer silently starts acting on
// someone else's event. Callers must hold the generation-checked sim.Handle
// or sim.Timer instead — both go inert when the record is recycled
// (docs/CONTRACTS.md §4). The sim package itself is exempt: it owns the
// records.
var HandleHygiene = &Analyzer{
	Name: "handlehygiene",
	Doc: "*sim.Event is a recycled record owned by the kernel; storing one in " +
		"a struct field or package variable outlives its generation. Hold a " +
		"sim.Handle or sim.Timer.",
	Run: runHandleHygiene,
}

const simPath = "dapes/internal/sim"

// inSim reports whether path is internal/sim or a package under it: the
// owner of event records and of the random-stream derivation.
func inSim(path string) bool {
	return path == simPath || strings.HasPrefix(path, simPath+"/")
}

func runHandleHygiene(pass *Pass) error {
	if inSim(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		inspectStack(file, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if t := exprType(pass, field.Type); t != nil && holdsSimEvent(t) {
						pass.Reportf(fieldPos(field),
							"struct field stores *sim.Event, a kernel-recycled record; hold the generation-checked sim.Handle or sim.Timer instead")
					}
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR || enclosingFuncBody(stack) != nil {
					return true
				}
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						obj := pass.TypesInfo.Defs[name]
						if obj == nil {
							continue
						}
						if holdsSimEvent(obj.Type()) {
							pass.Reportf(name.Pos(),
								"package variable %s stores *sim.Event, a kernel-recycled record; hold the generation-checked sim.Handle or sim.Timer instead",
								name.Name)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// holdsSimEvent reports whether the type is sim.Event, *sim.Event, or a
// container (slice, array, map, channel, pointer) bottoming out in one. It
// deliberately does not recurse through named struct types: a named type
// containing an event is flagged at its own declaration, not at every use.
func holdsSimEvent(t types.Type) bool {
	for {
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			return obj.Name() == "Event" && obj.Pkg() != nil && obj.Pkg().Path() == simPath
		}
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Map:
			if holdsSimEvent(u.Key()) {
				return true
			}
			t = u.Elem()
		default:
			return false
		}
	}
}

// exprType returns the type a type expression denotes, or nil.
func exprType(pass *Pass, expr ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

// fieldPos returns the position of the field's first name, or of its type
// for embedded fields.
func fieldPos(f *ast.Field) token.Pos {
	if len(f.Names) > 0 {
		return f.Names[0].Pos()
	}
	return f.Type.Pos()
}
