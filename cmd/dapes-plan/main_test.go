package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectedInputKeepsOutputFile: -o used to be truncated before the plan
// file was read, so a missing plan left a 0-byte file where the previous
// report was.
func TestRejectedInputKeepsOutputFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	const previous = "previous report\n"
	if err := os.WriteFile(out, []byte(previous), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "plans/does-not-exist.toml", "-o", out}); err == nil {
		t.Fatal("dapes-plan run of a missing plan: no error")
	}
	if b, err := os.ReadFile(out); err != nil || string(b) != previous {
		t.Errorf("dapes-plan -o: file = %q (err %v), want it untouched", b, err)
	}
}

// TestRefusedPlanStreamsNothing: a [faults] plan over fig7-dapes and
// fig7-bithoc streamed fig7-dapes's cells, then failed fig7-bithoc's first
// trial, which applies no fault plan. It is refused before any cell runs,
// so stdout holds no JSON line.
func TestRefusedPlanStreamsNothing(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "plan.toml")
	if err := os.WriteFile(src, []byte("name = \"x\"\ntrials = 1\n\n[grid]\nscenarios = [\"fig7-dapes\", \"fig7-bithoc\"]\n"+
		"ranges = [60.0]\n\n[scale]\nfiles = 1\npackets = 2\nhorizon = \"1m\"\n\n[faults]\njam_radius = 10000.0\njam_until = \"2h\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	err = run([]string{"run", src, "-o", filepath.Join(dir, "report.txt")})
	os.Stdout = saved
	if err == nil || !strings.Contains(err.Error(), "scenario fig7-bithoc applies no fault plan") || !strings.Contains(err.Error(), "drop faults") {
		t.Fatalf("dapes-plan run: err = %v, want fig7-bithoc's fault plan refused", err)
	}
	if b, err := os.ReadFile(stdout.Name()); err != nil || len(b) != 0 {
		t.Errorf("dapes-plan run streamed %q (err %v) before refusing the plan", b, err)
	}
}
