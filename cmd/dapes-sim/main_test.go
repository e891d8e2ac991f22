package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dapes/internal/plan"
)

// TestRejectsMisreadInputs: a flag value the run cannot honour must fail
// with an error naming it, never panic, fall back silently, or label the
// output with a value that was not used. -strategy used to read every typo
// as "local"; -range -1 panicked in geo.NewGrid; -range 0 ran phy's 60 m
// default and emitted "range_m": 0.
func TestRejectsMisreadInputs(t *testing.T) {
	tiny := []string{"-files", "2", "-packets", "5", "-trials", "1", "-o", filepath.Join(t.TempDir(), "out")}
	dir := t.TempDir()
	jam := filepath.Join(dir, "jam.toml")
	if err := os.WriteFile(jam, []byte("jam_radius = 10000\njam_until = \"2h\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cpuProf, memProf := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	profiles := []string{"-cpuprofile", cpuProf, "-memprofile", memProf}
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
		// The ad-hoc DAPES flags beside a scenario, which does not read
		// them, ran and exited 0 as if they were honoured.
		{[]string{"-scenario", "fig7-dapes", "-peba=false", "-forward-prob", "5"}, "-scenario fig7-dapes ignores -forward-prob, -peba"},
		{[]string{"-scenario", "fig7-ekta", "-peba=false"}, "-scenario fig7-ekta ignores -peba"},
		{[]string{"-scenario", "fig7-bithoc", "-strategy", "local", "-random-start", "-interleave", "-bitmaps", "2",
			"-peba", "-multihop", "-forward-prob", "0.5"},
			"-scenario fig7-bithoc ignores -bitmaps, -forward-prob, -interleave, -multihop, -peba, -random-start, -strategy"},
		// -system was an alias of -scenario fig7-bithoc and fig7-ekta.
		{[]string{"-system", "bithoc"}, "flag provided but not defined: -system"},
		// The Fig.-8 worlds fix their own 50 m range: -range ran them
		// unchanged and labelled every row with the value given.
		{[]string{"-scenario", "fig8a-carrier", "-range", "20"}, "-scenario fig8a-carrier ignores -range"},
		{[]string{"-scenario", "fig8b-repository", "-range", "50"}, "-scenario fig8b-repository ignores -range"},
		{[]string{"-scenario", "fig8c-mobile", "-range", "100", "-peba"}, "-scenario fig8c-mobile ignores -peba, -range"},
		// partitioned-merge lays its clusters out in units of the range, so
		// every -range ran the same trial under another label.
		{[]string{"-scenario", "partitioned-merge", "-range", "90"}, "-scenario partitioned-merge ignores -range"},
		// Only a plan file bounded trials: this panicked in makeslice.
		{[]string{"-trials", "1125899906842624"}, "Scale.Trials = 1125899906842624, want 1 to 1000 trials"},
		// A world that applies no fault plan failed trial 0, after the
		// profile had been created.
		{append([]string{"-scenario", "fig7-bithoc", "-faults", jam}, profiles...), "-scenario fig7-bithoc ignores -faults"},
		// What Runner.Run refuses was refused after the CPU profile had
		// been created, and the heap profile was written on the way out.
		{append([]string{"-trials", "0"}, profiles...), "Scale.Trials = 0, want 1 to 1000 trials"},
		{append([]string{"-horizon", "0s"}, profiles...), "Scale.Horizon = 0s"},
		{append([]string{"-range", "-1"}, profiles...), `"dapes(custom)": WiFi range = -1 m`},
	} {
		err := run(append(tiny, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dapes-sim %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
		for _, p := range []string{cpuProf, memProf} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("dapes-sim %v left %s behind (stat: %v)", tc.args, filepath.Base(p), err)
				os.Remove(p)
			}
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
	// The accepted spellings still run, and a run is labelled with the
	// range its world ran at: a Fig.-8 world's own 50 m, not the -range
	// default of 60 it used to print.
	for _, tc := range []struct {
		args []string
		want string // substring of the JSON output
	}{
		{[]string{"-strategy", "local"}, `"range_m": 60`},
		{[]string{"-strategy", "encounter"}, `"range_m": 60`},
		{[]string{"-scenario", "fig8a-carrier"}, `"range_m": 50`},
		{[]string{"-scenario", "fig8b-repository"}, `"range_m": 50`},
		{[]string{"-scenario", "fig8c-mobile"}, `"range_m": 50`},
	} {
		out := filepath.Join(t.TempDir(), "out.json")
		if err := run(append(append(tc.args, tiny...), "-horizon", "2m", "-format", "json", "-o", out)); err != nil {
			t.Errorf("dapes-sim %v: %v", tc.args, err)
			continue
		}
		if b, err := os.ReadFile(out); err != nil || !strings.Contains(string(b), tc.want) {
			t.Errorf("dapes-sim %v: output %q (err %v), want one containing %s", tc.args, b, err, tc.want)
		}
	}
}

// TestBuiltInStacksMatchScenarios: without -scenario, dapes-sim runs its
// built-in DAPES stack, and at the design flags' defaults it must emit what
// the registered scenario of the same configuration emits, label aside.
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
	dir := t.TempDir()
	writeFaults := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// A jammer over every node: a plan fig7-bithoc cannot apply.
	jam := writeFaults("jam.toml", "jam_radius = 10000\njam_until = \"2h\"\n")
	// An unquoted duration, and a file over the plan-file size bound.
	malformed := writeFaults("malformed.toml", "crash_frac = 0.5\ncrash_until = 30s\n")
	oversized := writeFaults("oversized.toml", strings.Repeat("#\n", plan.MaxPlanFileSize/2+1))
	for _, args := range [][]string{
		{"-scenario", "fig7-dappes"},
		{"-strategy", "bogus"},
		{"-range", "+Inf", "-format", "json"},
		{"-scenario", "fig7-bithoc", "-faults", jam},
		{"-scenario", "fig7-dapes", "-faults", malformed},
		{"-scenario", "fig7-dapes", "-faults", oversized},
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
