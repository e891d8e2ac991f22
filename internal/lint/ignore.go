package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// ignorePrefix is the escape-hatch directive. Usage, on the offending line
// or the line directly above it:
//
//	//lint:ignore simclock the node binary runs in wall-clock time
//
// The first word names the analyzer (or a comma-separated list of
// analyzers); everything after it is the mandatory justification.
const ignorePrefix = "//lint:ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos       token.Pos
	line      int
	analyzers []string
	reason    string
}

// parseDirectives extracts every //lint:ignore directive from the files.
// Malformed directives — no analyzer name, or an empty reason — come back as
// diagnostics (analyzer "lint"): an unexplained suppression defeats the
// point of the escape hatch.
func parseDirectives(fset *token.FileSet, files []*ast.File) (dirs []directive, bad []Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignoreXYZ — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed //lint:ignore: missing analyzer name and reason",
						Analyzer: "lint",
					})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Message:  "//lint:ignore " + fields[0] + " needs a non-empty reason",
						Analyzer: "lint",
					})
					continue
				}
				dirs = append(dirs, directive{
					pos:       c.Pos(),
					line:      fset.Position(c.Pos()).Line,
					analyzers: strings.Split(fields[0], ","),
					reason:    strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return dirs, bad
}

// filterIgnored drops diagnostics covered by a directive: an //lint:ignore
// naming the diagnostic's analyzer, sitting on the diagnostic's line
// (trailing comment) or the line directly above it (standalone comment).
// Each directive that covered nothing is reported in turn (analyzer
// "lint"): a suppression with nothing left to suppress would hide the next
// finding on its line. A directive is judged only when every name in it is
// an analyzer of ran or no analyzer at all, so a run of part of the suite
// leaves the directives of the rest alone.
func filterIgnored(fset *token.FileSet, diags []Diagnostic, dirs []directive, ran []*Analyzer) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	used := make([]bool, len(dirs))
	kept := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for i, dir := range dirs {
			if fset.Position(dir.pos).Filename != pos.Filename {
				continue
			}
			if dir.line != pos.Line && dir.line != pos.Line-1 {
				continue
			}
			if slices.Contains(dir.analyzers, d.Analyzer) {
				used[i], suppressed = true, true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for i, dir := range dirs {
		if !used[i] && judged(dir, ran) {
			kept = append(kept, Diagnostic{
				Pos:      dir.pos,
				Message:  "//lint:ignore " + strings.Join(dir.analyzers, ",") + " suppresses nothing",
				Analyzer: "lint",
			})
		}
	}
	return kept
}

// judged reports whether every name dir gives is an analyzer of ran or
// names no analyzer of the suite.
func judged(dir directive, ran []*Analyzer) bool {
	for _, name := range dir.analyzers {
		isName := func(a *Analyzer) bool { return a.Name == name }
		if !slices.ContainsFunc(ran, isName) && slices.ContainsFunc(Analyzers(), isName) {
			return false
		}
	}
	return true
}
