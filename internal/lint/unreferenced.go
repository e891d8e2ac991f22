package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Unreferenced flags every package-level func, method, type, const, var and
// struct field in a package under internal/ that no non-test file of the
// program references: code kept alive only by its own tests. Packages under
// internal/ have no importers outside the program, so an identifier nothing
// names is dead. A method is exempt when a type of the program has it in its
// method set — declared or promoted through an embedded field — and
// implements an interface that has it: interface calls and implicit
// conversions (fmt.Stringer, error) reach it without naming it. The
// analyzer needs the whole program (Pass.Program); on a package checked on
// its own it reports nothing.
var Unreferenced = &Analyzer{
	Name: "unreferenced",
	Doc: "Every package-level declaration under internal/ is referenced by a non-test file " +
		"of the program (both modules), or satisfies an interface; a test-only hook says why " +
		"it stays with //lint:ignore unreferenced.",
	Run: runUnreferenced,
}

func runUnreferenced(pass *Pass) error {
	if pass.Program == nil || !strings.Contains(pass.Pkg.Path()+"/", "/internal/") {
		return nil
	}
	refs := pass.Program.references()
	report := func(id *ast.Ident, what string) {
		obj := pass.TypesInfo.Defs[id]
		if id.Name == "_" || obj == nil || refs.used[obj] {
			return
		}
		if m, ok := obj.(*types.Func); ok && refs.satisfiesInterface(m) {
			return
		}
		pass.Reportf(id.Pos(), "%s is referenced by no non-test file; delete it, or keep it with //lint:ignore unreferenced <the test or reference that needs it>", what)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					report(d.Name, "method "+recvName(d.Recv)+"."+d.Name.Name)
				} else if d.Name.Name != "init" {
					report(d.Name, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						report(s.Name, "type "+s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								// An embedded field is used through what it
								// promotes, which the methods' check covers.
								for _, name := range f.Names {
									report(name, "field "+s.Name.Name+"."+name.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							report(name, d.Tok.String()+" "+name.Name)
						}
					}
				}
			}
		}
	}
	return nil
}

// references is the program-wide index Unreferenced consults.
type references struct {
	// used holds every object some non-test file refers to from outside
	// the object's own declaration (generic instances by their origin).
	used map[types.Object]bool
	// ifaces holds every interface of the program and of the packages it
	// imports, by the names of its methods.
	ifaces map[string][]*types.Interface
	// named holds every package-level, non-generic named type the program
	// declares.
	named []*types.Named
}

func (p *Program) references() *references {
	p.refsOnce.Do(func() {
		r := &references{used: map[types.Object]bool{}, ifaces: map[string][]*types.Interface{}}
		addIface := func(it *types.Interface) {
			for i := 0; i < it.NumMethods(); i++ {
				r.ifaces[it.Method(i).Name()] = append(r.ifaces[it.Method(i).Name()], it)
			}
		}
		addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
		// The program's own interfaces are collected from their syntax;
		// those of the packages it imports, transitively, from their scopes.
		seen := map[*types.Package]bool{}
		for _, c := range p.Packages {
			seen[c.Pkg] = true
			r.named = append(r.named, namedTypes(c.Pkg)...)
			for _, file := range c.Files {
				for _, decl := range file.Decls {
					r.collect(c.Info, decl, addIface)
				}
			}
		}
		var scan func(pkg *types.Package)
		scan = func(pkg *types.Package) {
			for _, imp := range pkg.Imports() {
				if seen[imp] {
					continue
				}
				seen[imp] = true
				for _, named := range namedTypes(imp) {
					if it, ok := named.Underlying().(*types.Interface); ok {
						addIface(it)
					}
				}
				scan(imp)
			}
		}
		for _, c := range p.Packages {
			scan(c.Pkg)
		}
		p.refs = r
	})
	return p.refs
}

// collect records the references in one top-level declaration and the
// interface types written in it. A reference from inside the declaration
// that defines the object (a recursive call, a self-referential type) does
// not count; in a grouped declaration each spec is its own unit.
func (r *references) collect(info *types.Info, decl ast.Decl, addIface func(*types.Interface)) {
	units := []ast.Node{decl}
	if d, ok := decl.(*ast.GenDecl); ok {
		units = units[:0]
		for _, spec := range d.Specs {
			units = append(units, spec)
		}
	}
	for _, unit := range units {
		self := map[types.Object]bool{}
		switch u := unit.(type) {
		case *ast.FuncDecl:
			self[info.Defs[u.Name]] = true
		case *ast.TypeSpec:
			self[info.Defs[u.Name]] = true
		case *ast.ValueSpec:
			for _, name := range u.Names {
				self[info.Defs[name]] = true
			}
		}
		ast.Inspect(unit, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && !self[obj] {
					r.used[origin(obj)] = true
				}
			case *ast.InterfaceType:
				if it, ok := info.Types[n].Type.(*types.Interface); ok {
					addIface(it)
				}
			case *ast.CompositeLit:
				// An unkeyed struct literal sets every field without
				// naming one.
				tv, ok := info.Types[n]
				if !ok || len(n.Elts) == 0 {
					break
				}
				if st, ok := tv.Type.Underlying().(*types.Struct); ok {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							r.used[origin(st.Field(i))] = true
						}
					}
				}
			}
			return true
		})
	}
}

// satisfiesInterface reports whether some named type of the program has m
// in the method set of its value or pointer type, directly or promoted,
// and implements an interface that has a method of m's name.
func (r *references) satisfiesInterface(m *types.Func) bool {
	ifaces := r.ifaces[m.Name()]
	if len(ifaces) == 0 {
		return false
	}
	for _, named := range r.named {
		for _, t := range []types.Type{named, types.NewPointer(named)} {
			obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
			if obj == nil || origin(obj) != m {
				continue
			}
			for _, it := range ifaces {
				if types.Implements(t, it) {
					return true
				}
			}
		}
	}
	return false
}

// namedTypes returns the package-level named types of pkg that take no type
// parameters (types.Implements is unspecified for the others).
func namedTypes(pkg *types.Package) []*types.Named {
	var out []*types.Named
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
			out = append(out, named)
		}
	}
	return out
}

// recvName returns the receiver's base type name.
func recvName(recv *ast.FieldList) string {
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// origin maps a member of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
