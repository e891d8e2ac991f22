package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dapes/internal/lint"
	"dapes/internal/lint/linttest"
)

// The fixture tests pin each analyzer's behavior from both sides: every
// seeded violation must be caught (the `// want` lines) and every
// legitimate or //lint:ignore-suppressed shape must stay silent (the test
// fails on any unexpected diagnostic).

func fixture(name string) string { return filepath.Join("testdata", "src", name) }

func TestSimClockFixture(t *testing.T) {
	// The virtual import path places the fixture ON the simulation-path
	// package list.
	linttest.Run(t, lint.SimClock, fixture("simclock"), "dapes/internal/ekta/lintfixture")
}

func TestSimClockInsideSim(t *testing.T) {
	// Under internal/sim a seeded generator is legal (the package defines
	// the stream derivation); the clock and the global source are not.
	linttest.Run(t, lint.SimClock, fixture("simclock_sim"), "dapes/internal/sim/lintfixture")
}

func TestSimClockOffSimulationPath(t *testing.T) {
	// The same wall-clock calls under a cmd/ path: zero diagnostics (the
	// fixture has no `// want` lines, so any finding fails the test).
	linttest.Run(t, lint.SimClock, fixture("simclock_offpath"), "dapes/cmd/lintfixture")
}

func TestMapOrderFixture(t *testing.T) {
	linttest.Run(t, lint.MapOrder, fixture("maporder"), "dapes/internal/nfd/lintfixture")
}

func TestWireImmutFixture(t *testing.T) {
	linttest.Run(t, lint.WireImmut, fixture("wireimmut"), "dapes/internal/transport/lintfixture")
}

func TestNameKeyFixture(t *testing.T) {
	linttest.Run(t, lint.NameKey, fixture("namekey"), "dapes/internal/multihop/lintfixture")
}

func TestNameKeyOffSimulationPath(t *testing.T) {
	linttest.Run(t, lint.NameKey, fixture("namekey_offpath"), "dapes/cmd/lintfixture")
}

func TestUnsafeFixture(t *testing.T) {
	// Off the simulation path too: the rule is module-wide.
	linttest.Run(t, lint.Unsafe, fixture("unsafe"), "dapes/cmd/lintfixture")
}

func TestUnsafeInsideNDN(t *testing.T) {
	linttest.Run(t, lint.Unsafe, fixture("unsafe_ndn"), "dapes/internal/ndn")
}

// TestTreeIsClean is the baseline the satellite task demands: the full
// suite over the whole module must produce zero unsuppressed diagnostics.
// `make lint` enforces the same in CI; having it as a test means a
// regression fails `go test ./...` too, with the diagnostics in the log.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the whole module")
	}
	diags, err := lint.RunDir(lint.ModuleRoot(""), "./...")
	if err != nil {
		t.Fatalf("dapes-lint: %v", err)
	}
	if len(diags) > 0 {
		t.Errorf("dapes-lint found %d unsuppressed diagnostic(s):\n  %s",
			len(diags), strings.Join(diags, "\n  "))
	}
}

func TestUnreferencedFixture(t *testing.T) {
	// A module with a nested module of its own, the shape of this repository
	// and benchmark/: the whole program is both.
	linttest.RunProgram(t, lint.Unreferenced, fixture("unreferenced"))
}

// TestContractsNameEveryAnalyzer: docs/CONTRACTS.md gives each analyzer a
// numbered section headed "## N. <invariant> (`name`)", and the names in
// those headings are exactly the suite's. A hand-kept list drifts; this one
// fails when an analyzer is added or deleted without its section.
func TestContractsNameEveryAnalyzer(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "CONTRACTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	for _, m := range regexp.MustCompile("(?m)^## [0-9]+\\. .*\\(`([a-z]+)`\\)$").FindAllSubmatch(doc, -1) {
		documented = append(documented, string(m[1]))
	}
	var suite []string
	for _, a := range lint.Analyzers() {
		suite = append(suite, a.Name)
	}
	slices.Sort(documented)
	slices.Sort(suite)
	if !slices.Equal(documented, suite) {
		t.Errorf("docs/CONTRACTS.md numbered sections name analyzers %v; lint.Analyzers() is %v", documented, suite)
	}
}
