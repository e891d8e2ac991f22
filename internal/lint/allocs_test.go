package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAllocsPerRunIsNotParallel: testing.AllocsPerRun reads the process-wide
// allocation counters, so a test that measures with it while running in
// parallel counts what its neighbours allocate and fails at random. Every
// *_test.go file in the module (testdata aside) is parsed, and no function
// may call both t.Parallel() and testing.AllocsPerRun, closures included.
func TestAllocsPerRunIsNotParallel(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		checked++
		testingName := importName(f, "testing")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || testingName == "" {
				continue
			}
			if parallel, allocs := scanCalls(fn.Body, testingName); parallel && allocs {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s:%d: %s calls both t.Parallel() and testing.AllocsPerRun; the count includes what parallel tests allocate",
					rel, fset.Position(fn.Pos()).Line, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatalf("no _test.go files found under %s", root)
	}
}

// scanCalls reports whether body calls X.Parallel() and <testing>.AllocsPerRun.
func scanCalls(body *ast.BlockStmt, testingName string) (parallel, allocs bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Parallel":
			parallel = parallel || len(call.Args) == 0
		case "AllocsPerRun":
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == testingName {
				allocs = true
			}
		}
		return true
	})
	return parallel, allocs
}

// importName is the name f refers to the package at path by, or "" if f
// does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return filepath.Base(path)
	}
	return ""
}

// moduleRoot is the nearest directory above the test's own that holds a
// go.mod naming module dapes.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module dapes\n") {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod for module dapes above the working directory")
		}
		dir = parent
	}
}
