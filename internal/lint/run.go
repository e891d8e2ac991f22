package lint

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
)

// RunDir loads the program of dir's module (LoadProgram), runs the full
// analyzer suite over every package the patterns name, and returns
// formatted diagnostics ("path/file.go:line:col: message (analyzer)") with
// module-root-relative paths. An empty slice means the tree is clean. This
// is the whole of cmd/dapes-lint; it lives here so the test suite can pin
// "the tree is clean" as a regular Go test.
func RunDir(dir string, patterns ...string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := LoadProgram(dir)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", append([]string{"list", "-find", "-f", "{{.ImportPath}}"}, patterns...)...)
	cmd.Dir = dir
	listed, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v", strings.Join(patterns, " "), err)
	}
	named := map[string]bool{}
	for _, path := range strings.Fields(string(listed)) {
		named[path] = true
	}
	root := ModuleRoot(dir)
	var out []string
	for _, c := range prog.Packages {
		if !named[c.Pkg.Path()] {
			continue
		}
		diags, err := RunAnalyzers(prog.Fset, c, prog, Analyzers())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Pkg.Path(), err)
		}
		for _, d := range diags {
			pos := prog.Fset.Position(d.Pos)
			file := pos.Filename
			if root != "" {
				if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
			}
			out = append(out, fmt.Sprintf("%s:%d:%d: %s (%s)", file, pos.Line, pos.Column, d.Message, d.Analyzer))
		}
	}
	return out, nil
}

// ModuleRoot returns the directory containing go.mod for dir, or "".
func ModuleRoot(dir string) string {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" || gomod == "NUL" {
		return ""
	}
	return filepath.Dir(gomod)
}
