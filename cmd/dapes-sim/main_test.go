package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsMisreadInputs: a flag value the run cannot honour must fail
// with an error naming it, never panic, fall back silently, or label the
// output with a value that was not used. -strategy used to read every typo
// as "local"; -range -1 panicked in geo.NewGrid; -range 0 ran phy's 60 m
// default and emitted "range_m": 0.
func TestRejectsMisreadInputs(t *testing.T) {
	tiny := []string{"-files", "2", "-packets", "5", "-trials", "1", "-o", filepath.Join(t.TempDir(), "out")}
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-strategy", "encouter"}, `unknown strategy "encouter" (want local or encounter)`},
		{[]string{"-strategy", "bogus"}, "want local or encounter"},
		{[]string{"-strategy", ""}, "want local or encounter"},
		{[]string{"-range", "-1"}, `"dapes(custom)": WiFi range = -1 m`},
		{[]string{"-range", "0"}, `"dapes(custom)": WiFi range = 0 m`},
		{[]string{"-scenario", "fig7-dapes", "-range", "-1"}, `"fig7-dapes": WiFi range = -1 m`},
		{[]string{"-scenario", "fig7-dapes", "-range", "0"}, `"fig7-dapes": WiFi range = 0 m`},
		// Later flags win, so these override tiny's values. -packets -1
		// panicked in buildCollection; the rest ran and printed a result.
		{[]string{"-scenario", "fig7-dapes", "-packets", "-1"}, "Scale.PacketsPerFile = -1"},
		{[]string{"-packets", "0"}, "Scale.PacketsPerFile = 0"},
		{[]string{"-horizon", "0s"}, "Scale.Horizon = 0s"},
		{[]string{"-workers", "-3"}, "Scale.Workers = -3"},
		// A collection too large to allocate panicked in makeslice.
		{[]string{"-packets", "9223372036854775807"}, "NumFiles x PacketsPerFile x PacketSize"},
		// A zero -forward-prob ran at core's 20% default, and values outside
		// [0, 1] or a negative -bitmaps ran as if they made sense.
		{[]string{"-forward-prob", "0"}, "-forward-prob = 0: want a probability in (0, 1]; -multihop=false turns forwarding off"},
		{[]string{"-forward-prob", "1.5"}, "-forward-prob = 1.5: want a probability in (0, 1]"},
		{[]string{"-forward-prob", "-1"}, "-forward-prob = -1: want a probability in (0, 1]"},
		{[]string{"-forward-prob", "NaN"}, "-forward-prob = NaN: want a probability in (0, 1]"},
		{[]string{"-bitmaps", "-3"}, "-bitmaps = -3: want 0 (all) or more"},
		// The ad-hoc DAPES flags beside a stack that does not read them, and
		// -system beside -scenario, ran and exited 0 as if they were honoured.
		{[]string{"-scenario", "fig7-dapes", "-peba=false", "-forward-prob", "5"}, "-scenario fig7-dapes ignores -forward-prob, -peba"},
		{[]string{"-scenario", "fig7-bithoc", "-system", "bithoc"}, "-scenario fig7-bithoc ignores -system"},
		{[]string{"-system", "ekta", "-peba=false"}, "-system ekta ignores -peba"},
		{[]string{"-system", "bithoc", "-strategy", "local", "-random-start", "-interleave", "-bitmaps", "2",
			"-peba", "-multihop", "-forward-prob", "0.5"},
			"-system bithoc ignores -bitmaps, -forward-prob, -interleave, -multihop, -peba, -random-start, -strategy"},
	} {
		err := run(append(tiny, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dapes-sim %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	// An unknown flag such as -shards fails before the output file is
	// created: exit 1, nothing written.
	out := filepath.Join(t.TempDir(), "out")
	if err := run([]string{"-shards", "4", "-o", out}); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("dapes-sim -shards 4: err = %v, want one naming -shards", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("dapes-sim -shards 4 left an output file behind (stat: %v)", err)
	}
	// The accepted spellings still run.
	for _, strategy := range []string{"local", "encounter"} {
		if err := run(append([]string{"-strategy", strategy}, tiny...)); err != nil {
			t.Errorf("-strategy %s: %v", strategy, err)
		}
	}
}

// TestBuiltInStacksMatchScenarios: without -scenario, dapes-sim runs its
// built-in stacks, and at their flag defaults each must emit what the
// registered scenario of the same stack emits, label aside.
func TestBuiltInStacksMatchScenarios(t *testing.T) {
	dir := t.TempDir()
	emit := func(name string, args ...string) string {
		t.Helper()
		out := filepath.Join(dir, name+".json")
		tiny := []string{"-files", "2", "-packets", "5", "-trials", "2", "-format", "json", "-o", out}
		if err := run(append(tiny, args...)); err != nil {
			t.Fatalf("dapes-sim %v: %v", args, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, tc := range []struct {
		builtIn  []string
		label    string
		scenario string
	}{
		{nil, "dapes(custom)", "fig7-dapes"},
		{[]string{"-system", "bithoc"}, "bithoc", "fig7-bithoc"},
		{[]string{"-system", "ekta"}, "ekta", "fig7-ekta"},
	} {
		got := emit(tc.label, tc.builtIn...)
		want := emit(tc.scenario, "-scenario", tc.scenario)
		label := `"scenario": "` + tc.label + `"`
		if !strings.Contains(got, label) {
			t.Fatalf("dapes-sim %v: output has no %s:\n%s", tc.builtIn, label, got)
		}
		got = strings.Replace(got, label, `"scenario": "`+tc.scenario+`"`, 1)
		if got != want {
			t.Errorf("dapes-sim %v differs from -scenario %s:\n got %s\nwant %s", tc.builtIn, tc.scenario, got, want)
		}
	}
}

// TestRejectedInputKeepsOutputFile: -o used to be truncated before the
// scenario or stack was resolved, so a rejected input left a 0-byte file
// where the previous results were.
func TestRejectedInputKeepsOutputFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	const previous = "{\"previous\": \"results\"}\n"
	// A jammer over every node: a plan fig7-bithoc cannot apply.
	faults := filepath.Join(t.TempDir(), "jam.toml")
	if err := os.WriteFile(faults, []byte("jam_radius = 10000\njam_until = \"2h\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-scenario", "fig7-dappes"},
		{"-strategy", "bogus"},
		{"-range", "+Inf", "-format", "json"},
		{"-scenario", "fig7-bithoc", "-faults", faults},
		{"-packets", "9223372036854775807", "-trials", "1"},
	} {
		if err := os.WriteFile(out, []byte(previous), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(append(args, "-o", out)); err == nil {
			t.Fatalf("dapes-sim %v: no error", args)
		}
		if b, err := os.ReadFile(out); err != nil || string(b) != previous {
			t.Errorf("dapes-sim %v -o: file = %q (err %v), want it untouched", args, b, err)
		}
	}
}
