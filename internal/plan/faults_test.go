package plan

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dapes/internal/fault"
)

// The fault-file tests: a fault file is a plan's [faults] section, with or
// without its header, read by ParseFaults.

func chaosPlan() *fault.Plan {
	return &fault.Plan{
		CrashFrac:  0.34,
		CrashFrom:  15 * time.Second,
		CrashUntil: 30 * time.Second,
		RestartMin: 10 * time.Second,
		RestartMax: 15 * time.Second,
		LossModel:  fault.LossGilbertElliott,
		PGood:      0.05,
		PBad:       0.40,
		GoodToBad:  0.10,
		BadToGood:  0.30,
	}
}

// TestParseRoundTrip: a full [faults] section parses into exactly the plan
// its keys describe.
func TestParseRoundTrip(t *testing.T) {
	src := `
# chaos defaults, pasted from a plan file
[faults]
crash_frac = 0.34
crash_from = "15s"
crash_until = "30s"
restart_min = "10s"
restart_max = "15s"
loss_model = "gilbert-elliott"
loss_p_good = 0.05
loss_p_bad = 0.40    # fade bursts
loss_good_to_bad = 0.10
loss_bad_to_good = 0.30
`
	got, err := ParseFaults([]byte(src))
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	if want := chaosPlan(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestParseJammer(t *testing.T) {
	got, err := ParseFaults([]byte("jam_x = 150\njam_y = 150\njam_radius = 100\njam_from = \"10s\"\njam_until = \"40s\"\n"))
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	if !got.HasJam() || got.HasCrashes() || got.HasLoss() {
		t.Fatalf("want a jam-only plan, got %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"crash_frac",                            // no '='
		"crash_frac = banana",                   // not a number
		"crash_from = 90",                       // unquoted number where a duration is required
		"crash_from = \"ninety\"",               // not a duration
		"loss_model = \"rayleigh\"",             // unknown model
		"tilt = 1",                              // unknown key
		"jam_x = 1\njam_x = 2",                  // duplicate key
		"crash_frac = 0.5",                      // crashes without a window (Validate)
		"crash_frac = 2\ncrash_until = \"30s\"", // out-of-range fraction
	} {
		if _, err := ParseFaults([]byte(src)); err == nil {
			t.Errorf("ParseFaults(%q) = nil error, want one", src)
		}
	}
}

// TestParseEmpty: comments, blank lines, and a bare header are a valid —
// empty — plan.
func TestParseEmpty(t *testing.T) {
	p, err := ParseFaults([]byte("# nothing\n\n[faults]\n"))
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	if p.HasCrashes() || p.HasJam() || p.HasLoss() {
		t.Fatalf("want an empty plan, got %+v", p)
	}
}

// TestFaultFileIsThePlanSection: a fault file and the [faults] section of a
// plan decode through one key table into the same plan.
func TestFaultFileIsThePlanSection(t *testing.T) {
	const section = "[faults]\njam_x = 150\njam_y = 150.5\njam_radius = 100\njam_from = \"10s\"\njam_until = \"40s\"\nloss_model = \"iid\"\n"
	fp, err := ParseFaults([]byte(section))
	if err != nil {
		t.Fatalf("ParseFaults: %v", err)
	}
	p, err := Parse([]byte("name = \"x\"\nscenario = \"fig7-dapes\"\n" + section))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(p.Base.Faults, fp) {
		t.Fatalf("plan section %+v, fault file %+v", p.Base.Faults, fp)
	}
}

// TestFaultFileRejectsWhatTheReaderDoes: a fault file is held like a plan
// file. Input outside the TOML subset is an error naming its line, a key
// outside the [faults] table or a header other than [faults] is refused,
// and a file over MaxPlanFileSize is refused by path without being read
// whole.
func TestFaultFileRejectsWhatTheReaderDoes(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"crash_until = \"30s\"\ncrash_from = 90s", "line 2: trailing content"},
		{"loss_model = gilbert-elliott", "line 1: unsupported value"},
		{"jam_x = 1\njam_radius = .5", "line 2: unsupported value"},
		{"crash_from = 90", "faults.crash_from: expected a duration string"},
		{"[grid]\nranges = [60.0]", "faults.grid"},
		{"jam_x = 1\n[faults]\njam_y = 1", "faults.faults"},
	} {
		if _, err := ParseFaults([]byte(tc.src)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseFaults(%q) = %v, want an error containing %q", tc.src, err, tc.want)
		}
	}
	path := filepath.Join(t.TempDir(), "huge.toml")
	if err := os.WriteFile(path, []byte(strings.Repeat("#\n", MaxPlanFileSize/2+1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFaultsFile(path); err == nil || !strings.Contains(err.Error(), path) ||
		!strings.Contains(err.Error(), "limit") {
		t.Errorf("ParseFaultsFile of an oversized file = %v, want a size error naming %s", err, path)
	}
}
