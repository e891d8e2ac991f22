package lint_test

import (
	"path/filepath"
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

func TestHandleHygieneFixture(t *testing.T) {
	linttest.Run(t, lint.HandleHygiene, fixture("handlehygiene"), "dapes/internal/core/lintfixture")
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
