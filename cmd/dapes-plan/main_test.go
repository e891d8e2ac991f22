package main

import (
	"os"
	"path/filepath"
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
