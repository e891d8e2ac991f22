package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
		{[]string{"-shards", "-1"}, "Scale.Shards = -1"},
		{[]string{"-workers", "-3"}, "Scale.Workers = -3"},
	} {
		err := run(append(tiny, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dapes-sim %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	// The accepted spellings still run.
	for _, strategy := range []string{"local", "encounter"} {
		if err := run(append([]string{"-strategy", strategy}, tiny...)); err != nil {
			t.Errorf("-strategy %s: %v", strategy, err)
		}
	}
}

// TestAbsurdShardCountIsBounded: -shards is outside input, and a stripe
// count beyond the arena's range-wide columns (five, for fig7-dapes' 300 m
// at the default 60 m range) used to hang the run at 1000 and get it
// OOM-killed at 200000. It must return promptly with exactly what the
// column count itself produces.
func TestAbsurdShardCountIsBounded(t *testing.T) {
	runJSON := func(shards string) []byte {
		out := filepath.Join(t.TempDir(), "run.json")
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-scenario", "fig7-dapes", "-files", "2", "-packets", "5", "-trials", "1",
				"-format", "json", "-shards", shards, "-o", out})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("-shards %s: %v", shards, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("-shards %s did not return within two minutes", shards)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := runJSON("5")
	if got := runJSON("200000"); !bytes.Equal(got, want) {
		t.Errorf("-shards 200000 diverged from -shards 5:\n%s\n%s", got, want)
	}
}
