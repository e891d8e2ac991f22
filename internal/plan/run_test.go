package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dapes/internal/experiment"
)

// runToBytes executes p capturing the JSON-lines stream and the rendered
// report tables as one byte stream, the way the CLI presents them.
func runToBytes(t *testing.T, p *Plan, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	res, err := Run(p, Options{Workers: workers, Stream: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if err := experiment.EmitTables(&buf, experiment.FormatText, res.Tables()...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenPlanDeterminism is the plan harness's core guarantee and the
// grid-cell extension of the PR-1 TrialSeed contract: the full output —
// JSON-lines stream plus report tables — is byte-identical whether cells
// run serially or fan out across four workers.
func TestGoldenPlanDeterminism(t *testing.T) {
	t.Parallel()
	p, err := Parse([]byte(smokeTOML))
	if err != nil {
		t.Fatal(err)
	}
	// Shrink to 4 cells x 1 trial to keep the double run fast while still
	// exercising real fan-out (4 workers, 4 cells).
	p.Trials = 1
	p.Grid.Nodes = []int{1}
	serial := runToBytes(t, p, 1)
	parallel := runToBytes(t, p, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("plan output diverged between -workers=1 and -workers=4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	if !bytes.Equal(serial, runToBytes(t, p, 2)) {
		t.Fatal("plan output diverged at -workers=2")
	}
}

// TestCommittedPlansRunDeterministically parses every committed plan file
// and proves the CI smoke plan's byte-identity contract on the real
// artifact CI runs.
func TestCommittedPlansRunDeterministically(t *testing.T) {
	t.Parallel()
	plans, err := filepath.Glob("../../plans/*.toml")
	if err != nil || len(plans) < 3 {
		t.Fatalf("committed plans missing: %v, %v", plans, err)
	}
	for _, path := range plans {
		if _, err := ParseFile(path); err != nil {
			t.Errorf("%s does not parse: %v", path, err)
		}
	}

	p, err := ParseFile("../../plans/ci-smoke.toml")
	if err != nil {
		t.Fatal(err)
	}
	serial := runToBytes(t, p, 1)
	parallel := runToBytes(t, p, 4)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("ci-smoke output diverged between -workers=1 and -workers=4:\n%s\nvs\n%s", serial, parallel)
	}
}

// seedsTOML sweeps two scenarios over three base seeds and two ranges.
const seedsTOML = `
name = "spread"
trials = 1

[grid]
scenarios = ["fig7-dapes", "ablation-singlehop"]
seeds = [3, 1, 2]
ranges = [60.0, 80.0]

[scale]
files = 1
packets = 4
packet_size = 200
horizon = "90s"
stationary = 1
mobile_down = 2
pure_forwarders = 1
intermediates = 1
`

// TestScenarioAndSeedAxes: the scenarios axis runs the same grid under each
// scenario, the seeds axis runs a cell at exactly the seed it names (what a
// one-scenario plan at that seed and range runs), and the report ends with
// one spread row per (scenario, range) whose median and quartiles are those
// of the three cells it folds.
func TestScenarioAndSeedAxes(t *testing.T) {
	t.Parallel()
	p, err := Parse([]byte(seedsTOML))
	if err != nil {
		t.Fatal(err)
	}
	cells := p.Cells()
	if len(cells) != 12 {
		t.Fatalf("%d cells, want 2 scenarios x 3 seeds x 2 ranges", len(cells))
	}
	for i, c := range cells {
		wantScenario := []string{"fig7-dapes", "ablation-singlehop"}[i/6]
		wantSeed := []int64{3, 1, 2}[i/2%3]
		wantRange := []float64{60, 80}[i%2]
		if c.Index != i || c.Scenario != wantScenario || c.Seed != wantSeed || c.Scale.BaseSeed != wantSeed || c.Range != wantRange {
			t.Errorf("cell %d = %s seed %d (scale %d) range %g, want %s seed %d range %g",
				i, c.Scenario, c.Seed, c.Scale.BaseSeed, c.Range, wantScenario, wantSeed, wantRange)
		}
	}
	res, err := Run(p, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Cell 2 is fig7-dapes at seed 1, 60 m: the same run as a plain trial.
	sc, err := experiment.Find("fig7-dapes")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := experiment.Runner{}.Run(sc, cells[2].Scale, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Cells[2]; got.Scenario != "fig7-dapes" || got.Seed != 1 || got.TransmissionsP90 != direct.Transmissions90 {
		t.Errorf("cell 2 = %+v, a direct run at seed 1 put %.0f frames on the air", got, direct.Transmissions90)
	}

	tables := res.Tables()
	spread := tables[len(tables)-1]
	if len(spread.Rows) != 4 || !strings.Contains(spread.Title, "over 3 seeds") {
		t.Fatalf("last table %q has %d rows, want the 3-seed spread of 2 scenarios x 2 ranges", spread.Title, len(spread.Rows))
	}
	// Row 1 is fig7-dapes at 80 m: cells 1, 3, 5. Nearest rank over three
	// values: median the 2nd smallest, quartiles the 1st and the 3rd.
	tx := []float64{res.Cells[1].TransmissionsP90, res.Cells[3].TransmissionsP90, res.Cells[5].TransmissionsP90}
	sort.Float64s(tx)
	if got, want := spread.Rows[1][6], fmt.Sprintf("%.0f [%.0f, %.0f]", tx[1], tx[0], tx[2]); spread.Rows[1][0] != "fig7-dapes" || spread.Rows[1][2] != "80" || got != want {
		t.Errorf("spread row 1 = %v, want fig7-dapes at 80 m with tx %s", spread.Rows[1], want)
	}
}

func TestRunStreamsValidJSONLinesInCellOrder(t *testing.T) {
	t.Parallel()
	p, err := Parse([]byte(smokeTOML))
	if err != nil {
		t.Fatal(err)
	}
	p.Trials = 1
	p.Grid.Nodes = []int{1}
	var buf bytes.Buffer
	res, err := Run(p, Options{Workers: 4, Stream: &buf})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Cells) {
		t.Fatalf("streamed %d lines for %d cells", len(lines), len(res.Cells))
	}
	for i, line := range lines {
		var rec CellResult
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		if rec.Cell != i {
			t.Fatalf("line %d carries cell %d: stream out of order", i, rec.Cell)
		}
		if rec.Plan != p.Name || rec.Scenario != p.Grid.Scenarios[0] {
			t.Fatalf("line %d mislabeled: %+v", i, rec)
		}
		if rec.Seed != CellSeed(p.Seed, i) {
			t.Fatalf("line %d seed %d, want %d", i, rec.Seed, CellSeed(p.Seed, i))
		}
	}
	// The buffered result matches the stream.
	for i, c := range res.Cells {
		if c.Cell != i {
			t.Fatalf("result cell %d out of order: %+v", i, c)
		}
	}
}

func TestRunFailsFastOnBadPlan(t *testing.T) {
	t.Parallel()
	p := &Plan{Name: "bad", Grid: Grid{Scenarios: []string{"no-such-scenario"}}, Trials: 1, Seed: 1, Base: experiment.ReducedScale()}
	p.ApplyDefaults()
	if _, err := Run(p, Options{}); err == nil {
		t.Fatal("Run accepted an unregistered scenario")
	}
}

func TestRunPropagatesStreamErrors(t *testing.T) {
	t.Parallel()
	p, err := Parse([]byte(smokeTOML))
	if err != nil {
		t.Fatal(err)
	}
	p.Trials = 1
	p.Grid.Nodes = []int{1}
	p.Grid.Loss = []float64{0.1}
	for _, workers := range []int{1, 4} {
		_, err = Run(p, Options{Workers: workers, Stream: failingWriter{}})
		if err == nil || !strings.Contains(err.Error(), "streaming") {
			t.Fatalf("workers=%d: stream error not surfaced: %v", workers, err)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("sink full") }
