package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one entry from `go list`: enough metadata to parse a package
// from source and to import its dependencies from compiler export data.
type Package struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Graph is the load result for a set of patterns: the named target packages
// plus export data for every transitive dependency, which is all a
// types.Config needs to re-check any one package from source.
//
// The loader shells out to `go list -export -deps` instead of depending on
// golang.org/x/tools/go/packages: the build cache already holds export data
// for every dependency (the go command wrote it while compiling), and the
// standard library's gc importer can read it, so the whole driver stays
// inside the standard library.
type Graph struct {
	Fset    *token.FileSet
	Targets []*Package // the packages the patterns named, in listing order

	exports map[string]string         // import path -> export data file
	checked map[string]*types.Package // packages Check has type-checked from source
	imp     types.Importer
}

// Load lists patterns (plus their full dependency closure) in dir and
// returns a Graph ready to type-check any listed package. Extra patterns
// beyond the caller's own packages (e.g. "time", "math/rand") may be passed
// so fixture code can import packages the module itself does not.
func Load(dir string, patterns ...string) (*Graph, error) {
	g := &Graph{
		Fset:    token.NewFileSet(),
		exports: map[string]string{},
		checked: map[string]*types.Package{},
	}
	gc := importer.ForCompiler(g.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := g.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	g.imp = importerFunc(func(path string) (*types.Package, error) {
		if p, ok := g.checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	if err := g.list(dir, patterns...); err != nil {
		return nil, err
	}
	return g, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// list runs `go list -export -deps` over patterns in dir, records export
// data for every package it names, and appends the non-dependency ones to
// Targets in dependency order.
func (g *Graph) list(dir string, patterns ...string) error {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listErrs []string
	for {
		var p Package
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("go list output: %w", err)
		}
		if p.Error != nil {
			listErrs = append(listErrs, fmt.Sprintf("%s: %s", p.ImportPath, p.Error.Err))
			continue
		}
		if p.Export != "" {
			g.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			pp := p
			g.Targets = append(g.Targets, &pp)
		}
	}
	if len(listErrs) > 0 {
		return fmt.Errorf("packages failed to load (fix the build before linting):\n  %s",
			strings.Join(listErrs, "\n  "))
	}
	return nil
}

// Program is every package of a module and of the modules nested in its
// directory tree (benchmark/ in this repository), type-checked from source
// in dependency order. A package imports the checked source of its module
// dependencies, not their export data, so a declaration is one
// types.Object wherever it is referenced, in either module: that is what
// lets Unreferenced count references across the whole program. Test files
// are not loaded.
type Program struct {
	Fset     *token.FileSet
	Packages []*Checked

	refsOnce sync.Once
	refs     *references
}

// LoadProgram loads and type-checks the program of the module containing
// dir: `go list -deps ./...` in the module root and then in every nested
// module (a directory below it holding a go.mod, outside testdata and
// hidden directories), each package checked once.
func LoadProgram(dir string) (*Program, error) {
	root := ModuleRoot(dir)
	if root == "" {
		return nil, fmt.Errorf("%s is not inside a Go module", dir)
	}
	g, err := Load(root, "./...")
	if err != nil {
		return nil, err
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			return g.list(path, "./...")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: g.Fset}
	for _, p := range g.Targets {
		if len(p.GoFiles) == 0 {
			continue
		}
		c, err := g.Check(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ImportPath, err)
		}
		prog.Packages = append(prog.Packages, c)
	}
	return prog, nil
}

// Checked is one package parsed and type-checked from source.
type Checked struct {
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Check parses the listed package's source files and type-checks them
// against the graph's export data and the packages checked before it; later
// checks import the result instead of its export data.
func (g *Graph) Check(p *Package) (*Checked, error) {
	if len(p.GoFiles) == 0 {
		return nil, errors.New("no Go files")
	}
	paths := make([]string, len(p.GoFiles))
	for i, f := range p.GoFiles {
		paths[i] = filepath.Join(p.Dir, f)
	}
	c, err := g.CheckFiles(p.ImportPath, paths)
	if err == nil {
		g.checked[p.ImportPath] = c.Pkg
	}
	return c, err
}

// CheckFiles parses the given source files as a single package with the
// given import path and type-checks them against the graph's export data.
// The path does not need to correspond to a real directory — the fixture
// runner uses virtual paths to place testdata packages on (or off) the
// simulation-path list.
func (g *Graph) CheckFiles(importPath string, filenames []string) (*Checked, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(g.Fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: g.imp}
	pkg, err := conf.Check(importPath, g.Fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Checked{Files: files, Pkg: pkg, Info: info}, nil
}
