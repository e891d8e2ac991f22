// Package lint is dapes-lint: a static-analysis suite that machine-checks
// the contracts this repo otherwise only documents in comments — the
// seeded-RNG/kernel-clock rule, sorted map iteration on emitting paths, the
// frame/wire immutability contract, tables never keyed by a name rendered
// at the lookup, package unsafe confined to internal/ndn, and no
// declaration under internal/ that nothing but tests reaches. The six
// invariants and the bug history behind each are written up in
// docs/CONTRACTS.md.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic, `// want` fixtures, a multichecker main in
// cmd/dapes-lint) but is built on the standard library alone: the module has
// zero external dependencies and keeps it that way. Porting an analyzer to
// the real x/tools framework is a mechanical rename if the dependency is
// ever taken.
//
// Every diagnostic can be suppressed with an explicit escape hatch on the
// offending line or the line above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself a diagnostic,
// and so is one that suppresses nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check. Run inspects a single type-checked package
// via the Pass and reports diagnostics through it.
type Analyzer struct {
	// Name is the identifier used in output and in //lint:ignore directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Program is the whole program the package was loaded with, or nil
	// when the package was checked on its own (a fixture).
	Program *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Analyzers returns the dapes-lint suite in output order.
func Analyzers() []*Analyzer {
	return []*Analyzer{SimClock, MapOrder, WireImmut, NameKey, Unsafe, Unreferenced}
}

// RunAnalyzers applies the given analyzers to one type-checked package of
// prog (nil for a package checked on its own) and returns the surviving
// diagnostics: //lint:ignore directives in the package's files are
// honored, and malformed directives (no analyzer name, empty reason) and
// directives that suppress nothing are diagnostics in their own right. The
// result is sorted by file position.
func RunAnalyzers(fset *token.FileSet, c *Checked, prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     c.Files,
			Pkg:       c.Pkg,
			TypesInfo: c.Info,
			Program:   prog,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	dirs, bad := parseDirectives(fset, c.Files)
	diags = filterIgnored(fset, diags, dirs, analyzers)
	diags = append(diags, bad...)
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// newTypesInfo returns a types.Info with every map the analyzers consult.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// inspectStack walks root like ast.Inspect but hands fn the stack of open
// ancestor nodes (outermost first, not including n itself). Returning false
// prunes the subtree.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// enclosingFuncBody returns the innermost function body on the stack, or nil
// when the node is not inside a function.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}
