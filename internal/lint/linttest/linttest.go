// Package linttest runs a dapes-lint analyzer over a testdata fixture
// package and checks its diagnostics against `// want` expectations, the
// same convention golang.org/x/tools/go/analysis/analysistest uses (this
// module stays dependency-free, so the runner is reimplemented on the
// standard library; fixtures would port to analysistest unchanged).
//
// Expectations are trailing comments on the offending line:
//
//	_ = time.Now() // want `wall clock on a simulation path`
//
// The quoted text is a regexp matched against the diagnostic message; a
// line may carry several. Every diagnostic must be wanted and every want
// must be matched, so fixtures pin false negatives and false positives at
// the same time. //lint:ignore directives in fixtures are honored before
// matching, which is how the suppressed-case halves of the fixtures work.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"dapes/internal/lint"
)

// graph caches the module load (one `go list -export -deps` subprocess)
// across the fixture tests in a package.
var (
	graphOnce sync.Once
	graph     *lint.Graph
	graphErr  error
)

func loadGraph() (*lint.Graph, error) {
	graphOnce.Do(func() {
		// Load from the module root (tests run in the package directory,
		// where ./... would only cover the lint packages). "time",
		// "math/rand", and "sort" are listed explicitly so fixtures may
		// import them even if the module's own dependency closure ever
		// stops covering them.
		graph, graphErr = lint.Load(lint.ModuleRoot(""), "./...", "time", "math/rand", "sort")
	})
	return graph, graphErr
}

// Run type-checks the fixture directory as a single package with the given
// import path (virtual — pick one on or off the simulation-path list as the
// fixture requires) and asserts the analyzer's diagnostics exactly match
// the fixture's `// want` expectations.
//
//lint:ignore unreferenced test support: the analyzer fixtures in internal/lint run through it
func Run(t *testing.T, a *lint.Analyzer, fixtureDir, pkgPath string) {
	t.Helper()
	g, err := loadGraph()
	if err != nil {
		t.Fatalf("loading module graph: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(fixtureDir, "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no fixture files in %s (%v)", fixtureDir, err)
	}
	sort.Strings(matches)
	checked, err := g.CheckFiles(pkgPath, matches)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", fixtureDir, err)
	}
	diags, err := lint.RunAnalyzers(g.Fset, checked, nil, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	expect(t, g.Fset, checked.Files, diags)
}

// RunProgram loads the fixture module at moduleDir together with the
// modules nested in it (lint.LoadProgram), runs the analyzer over every
// package of that program, and asserts the diagnostics exactly match the
// `// want` expectations in the program's files. It is how a whole-program
// analyzer such as Unreferenced is pinned.
//
//lint:ignore unreferenced test support: TestUnreferencedFixture runs through it
func RunProgram(t *testing.T, a *lint.Analyzer, moduleDir string) {
	t.Helper()
	prog, err := lint.LoadProgram(moduleDir)
	if err != nil {
		t.Fatalf("loading fixture program %s: %v", moduleDir, err)
	}
	var files []*ast.File
	var diags []lint.Diagnostic
	for _, c := range prog.Packages {
		d, err := lint.RunAnalyzers(prog.Fset, c, prog, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, c.Pkg.Path(), err)
		}
		files = append(files, c.Files...)
		diags = append(diags, d...)
	}
	expect(t, prog.Fset, files, diags)
}

// expect fails the test for every diagnostic no `// want` in files matches
// and for every want no diagnostic matched.
func expect(t *testing.T, fset *token.FileSet, files []*ast.File, diags []lint.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		if !wants.match(key, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", pos.Filename, pos.Line, d.Message, d.Analyzer)
		}
	}
	wants.reportUnmatched(t)
}

// want is one expectation: a regexp at a file:line.
type want struct {
	key     string
	re      *regexp.Regexp
	raw     string
	matched bool
}

type wantSet struct{ wants []*want }

func (ws *wantSet) match(key, message string) bool {
	for _, w := range ws.wants {
		if !w.matched && w.key == key && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	for _, w := range ws.wants {
		if !w.matched {
			t.Errorf("%s: want %q: no matching diagnostic", w.key, w.raw)
		}
	}
}

// wantRe extracts the quoted regexps from a `// want` comment: backquoted
// or double-quoted, one or more per comment.
var wantRe = regexp.MustCompile("`([^`]+)`|\"([^\"]+)\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				found := false
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, raw, err)
					}
					ws.wants = append(ws.wants, &want{key: key, re: re, raw: raw})
					found = true
				}
				if !found {
					t.Fatalf("%s: want comment with no quoted regexp: %s", key, c.Text)
				}
			}
		}
	}
	return ws
}
