package plan

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"dapes/internal/experiment"
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

// FuzzPlanWithFaults holds a plan file and a fault file together — the
// fault file's keys as the plan's [faults] section, the fault plan every
// cell runs — to the one decision of what a run refuses
// (experiment.Scenario.Refuses, asked by Validate): whatever Parse
// accepts, it never panics, and none of its cells fails at run time. A
// cell small enough for a fuzz iteration — at most 64 nodes after the
// largest scenario multiplier (25x), a collection of at most 64 KiB and a
// horizon of at most five minutes — runs its first trial; the rest are
// checked by validation only, as are cells past the first 16 that run.
func FuzzPlanWithFaults(f *testing.F) {
	const small = "[scale]\nfiles = 1\npackets = 2\nhorizon = \"30s\"\nstationary = 1\nmobile_down = 1\npure_forwarders = 0\nintermediates = 0\n"
	jam := "jam_radius = 10000\njam_until = \"2h\"\n"
	crash := "crash_frac = 0.5\ncrash_until = \"10s\"\nrestart_min = \"5s\"\nrestart_max = \"8s\"\n"
	bursty := "loss_model = \"gilbert-elliott\"\nloss_p_good = 0.05\nloss_p_bad = 0.4\nloss_good_to_bad = 0.1\nloss_bad_to_good = 0.3\n"
	for _, seed := range [][2]string{
		// TestParseRejects' fault-plan rows, and plans that run under them.
		{"name = \"a\"\nscenario = \"fig7-bithoc\"\n" + small, jam},
		{"name = \"a\"\n[grid]\nscenarios = [\"fig7-dapes\", \"fig7-bithoc\"]\n" + small, bursty},
		{"name = \"a\"\nscenario = \"partitioned-merge\"\n" + small, crash},
		{"name = \"a\"\nscenario = \"fig7-dapes\"\n" + small, crash},
		{"name = \"a\"\nscenario = \"urban-grid-chaos\"\n[grid]\nloss = [0.0, 0.3]\n" + small, crash},
		{"name = \"a\"\nscenario = \"blackout-recovery\"\n" + small, ""},
		{"name = \"a\"\nscenario = \"fig8a-carrier\"\n" + small, "loss_model = \"iid\"\n"},
		{"name = \"a\"\nscenario = \"convoy-churn\"\n" + small, "# nothing\n"},
		// TestRejectsMisreadInputs' trial bound, and TestRunnerRejectsBadInput's
		// knobs as plan keys.
		{"name = \"a\"\nscenario = \"fig7-dapes\"\ntrials = 1125899906842624\n", ""},
		{"name = \"a\"\nscenario = \"fig7-dapes\"\ntrials = 0\n", ""},
		{"name = \"a\"\nscenario = \"fig7-dapes\"\n[scale]\npackets = -1\n", ""},
		{"name = \"a\"\nscenario = \"fig7-dapes\"\n[scale]\npackets = 0\n", ""},
		{"name = \"a\"\nscenario = \"fig7-dapes\"\n[scale]\nhorizon = \"0s\"\n", ""},
		{"name = \"a\"\nscenario = \"fig7-dapes\"\n[grid]\nranges = [-1.0, 0.0]\n", ""},
		// TestRejectedInputKeepsOutputFile's inputs.
		{"name = \"a\"\nscenario = \"fig7-dappes\"\n", ""},
		{"name = \"a\"\nscenario = \"fig7-dapes\"\n" + small, "crash_frac = 0.5\ncrash_until = 30s\n"},
		{"name = \"a\"\nscenario = \"fig7-dapes\"\n[scale]\npackets = 9223372036854775807\n", ""},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	committed, err := filepath.Glob("../../plans/*.toml")
	if err != nil || len(committed) == 0 {
		f.Fatalf("no committed plans (%v)", err)
	}
	for _, path := range committed {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, []byte(""))
	}
	f.Fuzz(func(t *testing.T, planFile, faultFile []byte) {
		src := planFile
		if len(faultFile) > 0 {
			src = slices.Concat(planFile, []byte("\n[faults]\n"), faultFile)
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		ran := 0
		for _, c := range p.Cells() {
			s := c.Scale
			nodes := 1 + s.Stationary + 25*(s.MobileDown+s.PureForwarders+s.Intermediates)
			if nodes > 64 || s.NumFiles*s.PacketsPerFile*s.PacketSize > 64<<10 || s.Horizon > 5*time.Minute || ran == 16 {
				continue
			}
			ran++
			s.Trials = 1
			sc, err := experiment.Find(c.Scenario)
			if err != nil {
				t.Fatalf("accepted plan names an unknown scenario: %v", err)
			}
			if _, err := (experiment.Runner{}).Run(sc, s, c.Range); err != nil {
				t.Fatalf("accepted plan fails cell %d at run time: %v\nplan:\n%s", c.Index, err, src)
			}
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
