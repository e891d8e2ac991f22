package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

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
