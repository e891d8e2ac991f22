package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestRejectsMisreadInputs: an -only id or a -workers value the run cannot
// honour must fail with an error naming it before any experiment runs and
// before -o is truncated. -only 9z used to exit 0 with empty output.
func TestRejectsMisreadInputs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	if err := os.WriteFile(out, []byte("previous results"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-only", "9z"}, `unknown experiment id "9z" in -only (known: 9a, `},
		{[]string{"-only", "9a,10c"}, `unknown experiment id "10c"`},
		{[]string{"-only", "tableI", "-workers", "-2"}, "Scale.Workers = -2"},
		{[]string{"-scale", "huge"}, `unknown scale "huge"`},
	} {
		err := run(append([]string{"-scale", "quick", "-o", out}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dapes-bench %v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if kept, err := os.ReadFile(out); err != nil || string(kept) != "previous results" {
		t.Errorf("a rejected invocation touched -o: %q, %v", kept, err)
	}
}

// TestOnlyPrintsThePanelsAskedFor: -only selects tables, not sweeps — 10a
// used to print 10b too — and ids match in any case.
func TestOnlyPrintsThePanelsAskedFor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Fig. 10 sweep at quick scale")
	}
	titles := func(only string) []string {
		out := filepath.Join(t.TempDir(), "out.csv")
		if err := run([]string{"-scale", "quick", "-format", "csv", "-only", only, "-o", out}); err != nil {
			t.Fatalf("-only %s: %v", only, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(string(raw), "\n") {
			if title, ok := strings.CutPrefix(line, "# "); ok {
				got = append(got, title[:strings.IndexByte(title, ':')])
			}
		}
		return got
	}
	for only, want := range map[string]string{
		"10a":        "Fig 10a",
		"10B,tablei": "Table I,Fig 10b",
		"10":         "Fig 10a,Fig 10b",
	} {
		if got := strings.Join(titles(only), ","); got != want {
			t.Errorf("-only %s printed %q, want %q", only, got, want)
		}
	}
}

// TestGoldenQuickFigures pins every panel `-scale quick` prints, byte for
// byte, against testdata/quick.json — regenerated once, with the trial
// goldens, at the sim.Stream rebaseline (docs/CONTRACTS.md §1), and never
// regenerated by a change that claims to leave the evaluation alone. It is the series-wiring gate the
// absolute trial goldens cannot be: a swapped option in a figure's
// definition changes a column, not a trial. -only must print the matching
// sub-arrays, whether it selects one panel of a sweep or both.
func TestGoldenQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("every figure at quick scale, ~11 s")
	}
	t.Parallel()
	emit := func(only string) []byte {
		out := filepath.Join(t.TempDir(), "out.json")
		if err := run([]string{"-scale", "quick", "-format", "json", "-only", only, "-o", out}); err != nil {
			t.Fatalf("-only %q: %v", only, err)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := emit(""); !bytes.Equal(got, golden) {
		t.Errorf("-scale quick -format json differs from testdata/quick.json:\n%s", got)
	}

	type table struct {
		Title, Note string
		Header      []string
		Rows        [][]string
	}
	decode := func(raw []byte) []table {
		var ts []table
		if err := json.Unmarshal(raw, &ts); err != nil {
			t.Fatal(err)
		}
		return ts
	}
	all := decode(golden)
	for only, prefixes := range map[string][]string{
		"9g,9h": {"Fig 9g:", "Fig 9h:"},
		"10a":   {"Fig 10a:"},
	} {
		var want []table
		for _, prefix := range prefixes {
			for _, tb := range all {
				if strings.HasPrefix(tb.Title, prefix) {
					want = append(want, tb)
				}
			}
		}
		if got := decode(emit(only)); len(want) != len(prefixes) || !reflect.DeepEqual(got, want) {
			t.Errorf("-only %s printed %+v, want the golden's %+v", only, got, want)
		}
	}
}
