package plan

import (
	"strings"
	"testing"
)

// FuzzPlanFile holds the parser to its contract: any input — malformed
// TOML, absurd grid sizes, unknown scenario names, hostile
// numbers — may be rejected with an error, but must never panic, and a
// plan that parses must validate clean (Cells bounded by MaxCells, every
// cell Scale valid). Additional seeds live in testdata/fuzz/FuzzPlanFile.
func FuzzPlanFile(f *testing.F) {
	seeds := []string{
		smokeTOML,
		// Minimal valid plans.
		"name = \"a\"\nscenario = \"fig7-dapes\"\n",
		"name = \"a\"\nscenario = \"urban-grid\"\ntrials = 2\n[grid]\nranges = [60]\n",
		// Unknown scenario: must error (with near-miss help), not panic.
		"name = \"a\"\nscenario = \"fig7-dappes\"\n",
		// Absurd grid: overflow-checked, never materialized.
		"name = \"a\"\nscenario = \"fig7-dapes\"\n[grid]\nnodes = [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]\nranges = [1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0,11.0,12.0,13.0,14.0,15.0,16.0,17.0]\nloss = [0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95,0.99,0.05,0.15,0.25,0.35]\n",
		// Hostile numbers and strings.
		"name = \"a\"\nscenario = \"fig7-dapes\"\ntrials = 99999999999999999999999999\n",
		"name = \"a\"\nscenario = \"fig7-dapes\"\nseed = -9223372036854775808\n",
		"name = \"\\\"\\n\\t\\\\\"\nscenario = \"fig7-dapes\"\n",
		"name = \"a\"\nscenario = \"fig7-dapes\"\nseed = 1e308\n",
		// A seeds axis: each cell runs at its seed coordinate.
		"name = \"a\"\nscenario = \"fig7-dapes\"\n[grid]\nseeds = [5]\n",
		"name = \"a\"\nscenario = \"fig7-dapes\"\ntrials = 1.5\n",
		// Structural garbage.
		"[", "]", "=", "\"", "[[]]", "{", "{}", "{\"a\":", "# only a comment\n",
		"name = [\"a\", [\"b\"]]\n",
		"x = 1\ny = [1, \"two\", 3.0, true]\n",
		"name = \"a\"\nname = \"b\"\n",
		"[grid]\n[grid]\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			if p != nil {
				t.Fatalf("Parse returned both a plan and error %v", err)
			}
			return
		}
		// A parsed plan must be internally consistent: bounded grid,
		// validate-clean, and deterministic re-expansion.
		n, err := p.NumCells()
		if err != nil {
			t.Fatalf("parsed plan fails NumCells: %v", err)
		}
		if n < 1 || n > MaxCells {
			t.Fatalf("parsed plan expands to %d cells", n)
		}
		cells := p.Cells()
		if len(cells) != n {
			t.Fatalf("Cells() = %d, NumCells = %d", len(cells), n)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("parsed plan fails Validate: %v", err)
		}
		// Cells are row-major over scenarios, seeds, nodes, ranges, loss and
		// horizons: under a seeds axis a cell runs at its seed coordinate,
		// without one at the seed derived from its index.
		g := p.Grid
		inner := len(g.Nodes) * len(g.Ranges) * len(g.Loss) * len(g.Horizons)
		for i, c := range cells {
			seed := CellSeed(p.Seed, i)
			if len(g.Seeds) > 0 {
				seed = g.Seeds[i/inner%len(g.Seeds)]
			}
			if c.Index != i || c.Seed != seed || c.Scale.BaseSeed != seed {
				t.Fatalf("cell %d inconsistent (want seed %d): %+v", i, seed, c)
			}
		}
	})
}

// FuzzFaultPlan holds ParseFaults to the same contract: whatever the bytes,
// it returns a fault plan or an error, and any plan it returns is
// Validate-clean. The committed corpus in testdata/fuzz/FuzzFaultPlan keeps
// the interesting cases — hostile numbers, bad durations, duplicate keys —
// in CI's 10 s fuzz smoke.
func FuzzFaultPlan(f *testing.F) {
	seeds := []string{
		// Full chaos section as pasted from a plan file.
		"[faults]\ncrash_frac = 0.34\ncrash_from = \"15s\"\ncrash_until = \"30s\"\nrestart_min = \"10s\"\nrestart_max = \"15s\"\nloss_model = \"gilbert-elliott\"\nloss_p_good = 0.05\nloss_p_bad = 0.4\nloss_good_to_bad = 0.1\nloss_bad_to_good = 0.3\n",
		// Jammer-only plan.
		"jam_x = 150\njam_y = 150\njam_radius = 100\njam_from = \"10s\"\njam_until = \"40s\"\n",
		// Empty and comment-only inputs.
		"", "# comment\n\n[faults]\n",
		// Hostile numbers and durations.
		"crash_frac = 1e308\ncrash_until = \"30s\"\n",
		"crash_frac = NaN\ncrash_until = \"30s\"\n",
		"jam_radius = -1\n",
		"crash_from = \"-5s\"\ncrash_until = \"30s\"\n",
		"restart_min = \"9223372036854775807ns\"\n",
		// Malformed structure.
		"crash_frac", "= 0.5", "\"", "[faults", "crash_frac = ", "crash_frac == 0.5",
		"loss_model = \"rayleigh\"", "tilt = 1", "jam_x = 1\njam_x = 2",
		"crash_from = 90",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseFaults(data)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("ParseFaults returned nil plan with nil error")
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("ParseFaults accepted a plan Validate rejects: %v\nplan: %+v", verr, p)
		}
	})
}

// TestFuzzSeedsAreInterestingShapes sanity-checks that the corpus covers
// the three documented rejection classes (so the fuzz seeds can't rot
// into all-accepted or all-rejected).
func TestFuzzSeedsAreInterestingShapes(t *testing.T) {
	t.Parallel()
	if _, err := Parse([]byte("name = \"a\"\nscenario = \"fig7-dapes\"\n")); err != nil {
		t.Fatalf("minimal plan seed no longer parses: %v", err)
	}
	if _, err := Parse([]byte("name = \"a\"\nscenario = \"fig7-dappes\"\n")); err == nil ||
		!strings.Contains(err.Error(), "fig7-dapes") {
		t.Fatalf("unknown-scenario seed: %v", err)
	}
	if _, err := Parse([]byte("[")); err == nil {
		t.Fatal("structural-garbage seed parses")
	}
}
