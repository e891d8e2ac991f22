package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func filesOf(f *ast.File) []*ast.File { return []*ast.File{f} }

func TestIgnoreRequiresReason(t *testing.T) {
	const src = `package p

//lint:ignore simclock
func a() {}

//lint:ignore
func b() {}

//lint:ignore maporder,simclock the fan-out order is checksummed, not replayed
func c() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore_fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dirs, bad := parseDirectives(fset, filesOf(f))

	if len(bad) != 2 {
		t.Fatalf("malformed-directive diagnostics = %d, want 2: %+v", len(bad), bad)
	}
	if !strings.Contains(bad[0].Message, "needs a non-empty reason") {
		t.Errorf("reasonless directive message = %q, want it to demand a reason", bad[0].Message)
	}
	if !strings.Contains(bad[1].Message, "missing analyzer name and reason") {
		t.Errorf("bare directive message = %q", bad[1].Message)
	}
	for _, d := range bad {
		if d.Analyzer != "lint" {
			t.Errorf("malformed directive attributed to %q, want \"lint\"", d.Analyzer)
		}
	}

	if len(dirs) != 1 {
		t.Fatalf("well-formed directives = %d, want 1: %+v", len(dirs), dirs)
	}
	if got := dirs[0].analyzers; len(got) != 2 || got[0] != "maporder" || got[1] != "simclock" {
		t.Errorf("directive analyzers = %v, want [maporder simclock]", got)
	}
	if dirs[0].reason == "" {
		t.Error("directive reason is empty")
	}
}

func TestIgnoreSuppressesSameAndNextLine(t *testing.T) {
	const src = `package p

func a() {
	_ = 1 //lint:ignore simclock trailing-comment form
	//lint:ignore maporder standalone form covers the next line
	_ = 2
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore_fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dirs, bad := parseDirectives(fset, filesOf(f))
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %+v", bad)
	}

	// Synthesize diagnostics at lines 4 (simclock), 6 (maporder), and 6
	// (simclock — wrong analyzer for the standalone directive).
	file := fset.File(f.Pos())
	at := func(line int) token.Pos { return file.LineStart(line) }
	diags := []Diagnostic{
		{Pos: at(4), Message: "on the trailing-comment line", Analyzer: "simclock"},
		{Pos: at(6), Message: "under the standalone comment", Analyzer: "maporder"},
		{Pos: at(6), Message: "wrong analyzer for the directive", Analyzer: "simclock"},
	}
	kept := filterIgnored(fset, diags, dirs, []*Analyzer{SimClock, MapOrder})
	if len(kept) != 1 || kept[0].Analyzer != "simclock" || kept[0].Message != "wrong analyzer for the directive" {
		t.Errorf("kept = %+v, want only the wrong-analyzer diagnostic", kept)
	}
}

func TestIgnoreReportsUnusedDirective(t *testing.T) {
	const src = `package p

func a() {
	//lint:ignore maporder covers a finding on the next line
	_ = 1
	//lint:ignore maporder covers nothing: the next line is clean
	_ = 2
	//lint:ignore simclock names an analyzer this run leaves out
	_ = 3
	//lint:ignore nosuch names no analyzer at all
	_ = 4
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "ignore_fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dirs, bad := parseDirectives(fset, filesOf(f))
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %+v", bad)
	}
	file := fset.File(f.Pos())
	diags := []Diagnostic{{Pos: file.LineStart(5), Message: "suppressed", Analyzer: "maporder"}}
	kept := filterIgnored(fset, diags, dirs, []*Analyzer{MapOrder})

	var lines []int
	for _, d := range kept {
		if d.Analyzer != "lint" || !strings.Contains(d.Message, "suppresses nothing") {
			t.Errorf("kept %+v, want only unused-directive reports", d)
		}
		lines = append(lines, fset.Position(d.Pos).Line)
	}
	// Line 4's directive was used and line 8's analyzer did not run: both
	// are silent.
	if len(lines) != 2 || lines[0] != 6 || lines[1] != 10 {
		t.Errorf("unused directives reported on lines %v, want [6 10]", lines)
	}
}
