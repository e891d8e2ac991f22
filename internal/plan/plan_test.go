package plan

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

const smokeTOML = `
# smoke plan
name = "smoke"
scenario = "fig7-dapes"
summary = "test plan"
trials = 2
seed = 11

[grid]
nodes = [1, 2]
ranges = [60.0, 80.0] # trailing comment
loss = [0.0, 0.1]

[scale]
files = 2
packets = 4
packet_size = 200
horizon = "90s"
stationary = 2
mobile_down = 2
pure_forwarders = 1
intermediates = 1
`

func TestParseTOMLPlan(t *testing.T) {
	t.Parallel()
	p, err := Parse([]byte(smokeTOML))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "smoke" || len(p.Grid.Scenarios) != 1 || p.Grid.Scenarios[0] != "fig7-dapes" || p.Trials != 2 || p.Seed != 11 {
		t.Fatalf("identity fields lost: %+v", p)
	}
	if len(p.Grid.Nodes) != 2 || len(p.Grid.Ranges) != 2 || len(p.Grid.Loss) != 2 {
		t.Fatalf("grid axes lost: %+v", p.Grid)
	}
	if len(p.Grid.Horizons) != 1 || p.Grid.Horizons[0] != 90*time.Second {
		t.Fatalf("horizon default not applied from scale: %+v", p.Grid.Horizons)
	}
	if p.Base.NumFiles != 2 || p.Base.PacketSize != 200 || p.Base.Stationary != 2 {
		t.Fatalf("scale overrides lost: %+v", p.Base)
	}
	n, err := p.NumCells()
	if err != nil || n != 8 {
		t.Fatalf("NumCells = %d, %v, want 8", n, err)
	}
	// Axes the file leaves out take their one point from the base scale.
	p, err = Parse([]byte("name = \"x\"\nscenario = \"fig7-dapes\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Grid.Loss) != 1 || p.Grid.Loss[0] != p.Base.LossRate || len(p.Grid.Ranges) != len(p.Base.Ranges) {
		t.Fatalf("defaults not filled from the base scale: loss %v ranges %v", p.Grid.Loss, p.Grid.Ranges)
	}
}

func TestParseRejects(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, src, want string
	}{
		{"unknown top key", `name = "x"` + "\n" + `scenaro = "fig7-dapes"`, "scenaro"},
		{"unknown grid key", smokeTOML + "\n[extra]\nx = 1", "extra"},
		{"shards under scale", `name = "x"` + "\n" + `scenario = "urban-metro"` + "\n\n[scale]\nshards = 4", "scale.shards"},
		{"unknown scenario", `name = "x"` + "\n" + `scenario = "fig7-dappes"`, "fig7-dapes"},
		{"missing name", `scenario = "fig7-dapes"`, "name"},
		{"zero trials", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n" + `trials = 0`, "trials"},
		{"huge trials", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n" + `trials = 100000`, "trials"},
		// The best/worst table and its optimize targets are gone: the key
		// is refused by name like any other the reader does not know.
		{"bad optimize", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n" + `optimize = ["min:transmissions_p90"]`, "unknown key(s) [optimize]"},
		{"bad horizon", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nhorizons = [\"soon\"]", "horizons"},
		{"negative loss axis", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nloss = [-0.5]", "LossRate"},
		{"zero range axis", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nranges = [0.0]", "Ranges"},
		{"huge node multiplier", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nnodes = [99999]", "nodes"},
		{"max mobile_down", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[scale]\nmobile_down = 9223372036854775807", "MobileDown"},
		{"mobile_down wrapping to 0 under grid.nodes", `name = "x"` + "\n" + `scenario = "fig7-dapes"` +
			"\n\n[grid]\nnodes = [4]\n\n[scale]\nmobile_down = 4611686018427387904", "MobileDown"},
		{"max packets", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[scale]\npackets = 9223372036854775807", "PacketsPerFile"},
		{"scenario named twice", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nscenarios = [\"fig7-bithoc\"]", "one place"},
		{"unknown scenario on the axis", `name = "x"` + "\n\n[grid]\nscenarios = [\"fig7-dapes\", \"fig7-bitoc\"]", "fig7-bithoc"},
		{"no scenario at all", `name = "x"` + "\n\n[grid]\nseeds = [1, 2]", "scenario is required"},
		{"fractional seed", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nseeds = [1.5]", "grid.seeds"},
		{"string where int", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n" + `trials = "three"`, "integer"},
		{"duplicate key", `name = "x"` + "\n" + `name = "y"`, "twice"},
		{"duplicate table", `name = "x"` + "\n\n[grid]\nranges = [60.0]\n\n[grid]\nloss = [0.1]", "twice"},
		{"unterminated string", `name = "x`, "unterminated"},
		{"nested table", `[a.b]` + "\n" + `x = 1`, "table name"},
		{"nested array", `name = "x"` + "\n" + `optimize = [["a"]]`, "nested"},
		{"trailing garbage", `name = "x" y`, "trailing"},
		// The Fig.-8 worlds fix their range, loss, peers and area: a cell
		// on any of these axes ran the same world under another label. A
		// key the file sets is refused whatever its value, the base
		// scale's own included.
		{"ranges beside fig8a", `name = "x"` + "\n" + `scenario = "fig8a-carrier"` + "\n\n[grid]\nranges = [20.0, 100.0]",
			"scenario fig8a-carrier fixes its world's range: drop grid.ranges"},
		{"loss beside fig8b", `name = "x"` + "\n" + `scenario = "fig8b-repository"` + "\n\n[grid]\nloss = [0.0, 0.5]",
			"scenario fig8b-repository fixes its world's loss rate: drop grid.loss"},
		{"nodes beside fig8c", `name = "x"` + "\n" + `scenario = "fig8c-mobile"` + "\n\n[grid]\nnodes = [1, 4]",
			"scenario fig8c-mobile fixes its world's node mix: drop grid.nodes"},
		{"one-point range beside fig8a", `name = "x"` + "\n" + `scenario = "fig8a-carrier"` + "\n\n[grid]\nranges = [20.0]",
			"scenario fig8a-carrier fixes its world's range: drop grid.ranges"},
		{"the default ranges beside fig8a", `name = "x"` + "\n" + `scenario = "fig8a-carrier"` + "\n\n[grid]\nranges = [20.0, 60.0, 100.0]",
			"scenario fig8a-carrier fixes its world's range: drop grid.ranges"},
		{"one node multiplier beside fig8b", `name = "x"` + "\n" + `scenario = "fig8b-repository"` + "\n\n[grid]\nnodes = [1]",
			"scenario fig8b-repository fixes its world's node mix: drop grid.nodes"},
		{"ranges beside fig7 and fig8c", `name = "x"` + "\n\n[grid]\nscenarios = [\"fig7-dapes\", \"fig8c-mobile\"]\nranges = [60.0]",
			"scenario fig8c-mobile fixes its world's range: drop grid.ranges"},
		{"scale loss beside fig8a", `name = "x"` + "\n" + `scenario = "fig8a-carrier"` + "\n\n[scale]\nloss = 0.3",
			"scenario fig8a-carrier fixes its world's loss rate: drop scale.loss"},
		{"scale stationary beside fig8a", `name = "x"` + "\n" + `scenario = "fig8a-carrier"` + "\n\n[scale]\nstationary = 9",
			"scenario fig8a-carrier fixes its world's node mix: drop scale.stationary"},
		{"scale mobile_down beside fig8b", `name = "x"` + "\n" + `scenario = "fig8b-repository"` + "\n\n[scale]\nmobile_down = 3",
			"scenario fig8b-repository fixes its world's node mix: drop scale.mobile_down"},
		{"scale pure_forwarders beside fig8c", `name = "x"` + "\n" + `scenario = "fig8c-mobile"` + "\n\n[scale]\npure_forwarders = 3",
			"scenario fig8c-mobile fixes its world's node mix: drop scale.pure_forwarders"},
		{"scale intermediates beside fig8c", `name = "x"` + "\n" + `scenario = "fig8c-mobile"` + "\n\n[scale]\nintermediates = 3",
			"scenario fig8c-mobile fixes its world's node mix: drop scale.intermediates"},
		{"scale area_side beside fig8a", `name = "x"` + "\n" + `scenario = "fig8a-carrier"` + "\n\n[scale]\narea_side = 900.0",
			"scenario fig8a-carrier fixes its world's area: drop scale.area_side"},
		// Worlds that lay themselves out ran every area, and partitioned-merge
		// every range, as the same trial (TestEveryAxisMovesItsWorld).
		{"scale area_side beside partitioned-merge", `name = "x"` + "\n" + `scenario = "partitioned-merge"` + "\n\n[scale]\narea_side = 900.0",
			"scenario partitioned-merge fixes its world's area: drop scale.area_side"},
		{"ranges beside partitioned-merge", `name = "x"` + "\n" + `scenario = "partitioned-merge"` + "\n\n[grid]\nranges = [20.0, 100.0]",
			"scenario partitioned-merge fixes its world's range: drop grid.ranges"},
		{"scale area_side beside convoy-churn", `name = "x"` + "\n" + `scenario = "convoy-churn"` + "\n\n[scale]\narea_side = 900.0",
			"scenario convoy-churn fixes its world's area: drop scale.area_side"},
		// A bursty channel replaces the loss rate: urban-grid-chaos's own
		// fault plan, or a [faults] section that sets a loss model, whatever
		// the scenario.
		{"loss beside urban-grid-chaos", `name = "x"` + "\n" + `scenario = "urban-grid-chaos"` + "\n\n[grid]\nloss = [0.0, 0.2]",
			"scenario urban-grid-chaos runs a bursty loss channel, not a loss rate: drop grid.loss"},
		{"scale loss beside urban-grid-chaos", `name = "x"` + "\n" + `scenario = "urban-grid-chaos"` + "\n\n[scale]\nloss = 0.2",
			"scenario urban-grid-chaos runs a bursty loss channel, not a loss rate: drop scale.loss"},
		{"loss under bursty faults", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nloss = [0.0, 0.3]" + burstyFaults,
			"scenario fig7-dapes runs a bursty loss channel, not a loss rate: drop grid.loss"},
		{"scale loss under bursty faults", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[scale]\nloss = 0.3" + burstyFaults,
			"scenario fig7-dapes runs a bursty loss channel, not a loss rate: drop scale.loss"},
		{"loss beside urban-grid under bursty faults", `name = "x"` + "\n\n[grid]\nscenarios = [\"fig7-dapes\", \"urban-grid\"]\nloss = [0.1]" + burstyFaults,
			"scenario fig7-dapes runs a bursty loss channel, not a loss rate: drop grid.loss"},
		// A world that applies no fault plan ran every cell before it, then
		// failed its own first trial: the plan is refused before any cell.
		{"faults beside fig7-bithoc", `name = "x"` + "\n" + `scenario = "fig7-bithoc"` + jamFaults,
			"scenario fig7-bithoc applies no fault plan (crashes, jam, bursty loss): drop faults"},
		{"faults beside fig7-dapes and fig7-bithoc", `name = "x"` + "\n\n[grid]\nscenarios = [\"fig7-dapes\", \"fig7-bithoc\"]" + burstyFaults,
			"scenario fig7-bithoc applies no fault plan (crashes, jam, bursty loss): drop faults"},
		{"faults beside partitioned-merge", `name = "x"` + "\n" + `scenario = "partitioned-merge"` +
			"\n\n[faults]\ncrash_frac = 0.5\ncrash_until = \"30s\"", "scenario partitioned-merge applies no fault plan (crashes, jam, bursty loss): drop faults"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.src))
		if err == nil {
			t.Errorf("%s: Parse accepted the input", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// jamFaults is a [faults] section that jams every node for two hours.
const jamFaults = "\n\n[faults]\njam_radius = 10000.0\njam_until = \"2h\""

// burstyFaults is a [faults] section whose channel replaces the i.i.d. loss.
const burstyFaults = "\n\n[faults]\nloss_model = \"gilbert-elliott\"\nloss_p_good = 0.05\nloss_p_bad = 0.4\n" +
	"loss_good_to_bad = 0.1\nloss_bad_to_good = 0.3"

// TestFixedAxesPassWhenLeftOut: a Fig.-8 plan that leaves out the axes its
// world fixes, and sweeps what the world does read, is accepted, and gets
// one point on the range axis rather than one cell per base-scale range
// under labels that never ran; the same axes stay open to a scenario that
// reads them. A cell is labelled with what its world ran: the declared
// range and loss of a world that fixes them (a Fig.-8 cell used to carry
// the base scale's 20 m and 10%), and no loss rate for a bursty channel.
func TestFixedAxesPassWhenLeftOut(t *testing.T) {
	t.Parallel()
	const small = "\n\n[scale]\nfiles = 1\npackets = 5\nhorizon = \"2m\""
	for _, tc := range []struct {
		src   string
		cells int
		// labels, when set, runs the plan: cell i's JSON line and grid-table
		// row must carry labels[i] as their range_m and loss ("null" in the
		// line is "-" in the table).
		labels [][2]string
	}{
		{`name = "x"` + "\n" + `scenario = "fig8a-carrier"` + "\n\n[grid]\nseeds = [1, 2]\nhorizons = [\"10m\", \"20m\"]", 4, nil},
		{`name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nranges = [20.0]\nloss = [0.0, 0.5]\nnodes = [1, 4]", 4, nil},
		{`name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[scale]\nloss = 0.3\nstationary = 9\narea_side = 900.0", 3, nil},
		{`name = "x"` + "\n" + `scenario = "fig8a-carrier"` + small, 1, [][2]string{{"50", "0.05"}}},
		{`name = "x"` + "\n\n[grid]\nscenarios = [\"fig7-dapes\", \"fig8c-mobile\"]" + small, 2,
			[][2]string{{"20", "0.1"}, {"50", "0.05"}}},
		{`name = "x"` + "\n\n[grid]\nscenarios = [\"partitioned-merge\", \"urban-grid-chaos\"]" + small +
			"\nstationary = 1\nmobile_down = 2\npure_forwarders = 1\nintermediates = 1", 2,
			[][2]string{{"60", "0.1"}, {"20", "null"}}},
		// A [faults] section replaces urban-grid-chaos's own plan: one that
		// sets no loss model leaves the i.i.d. rate it runs, on its axis too;
		// a bursty one labels any scenario's loss null.
		{`name = "x"` + "\n" + `scenario = "urban-grid-chaos"` + "\n\n[grid]\nranges = [20.0]\nloss = [0.0, 0.3]" + small +
			"\nstationary = 1\nmobile_down = 2\npure_forwarders = 1\nintermediates = 1\n\n[faults]\ncrash_frac = 0.34\n" +
			"crash_from = \"20s\"\ncrash_until = \"40s\"\nrestart_min = \"10s\"\nrestart_max = \"20s\"", 2,
			[][2]string{{"20", "0"}, {"20", "0.3"}}},
		{`name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nranges = [20.0]" + small + burstyFaults, 1, [][2]string{{"20", "null"}}},
		// A [faults] section that injects nothing runs the no-fault path, so
		// a world that applies no fault plan takes it.
		{`name = "x"` + "\n" + `scenario = "fig7-bithoc"` + "\n\n[faults]\nloss_model = \"iid\"", 3, nil},
	} {
		p, err := Parse([]byte(tc.src))
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if got := len(p.Cells()); got != tc.cells {
			t.Errorf("Parse(%q) expands to %d cells, want %d", tc.src, got, tc.cells)
		}
		if tc.labels == nil {
			continue
		}
		var stream bytes.Buffer
		res, err := Run(p, Options{Stream: &stream})
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(stream.String()), "\n")
		rows := res.Tables()[0].Rows
		for i, l := range tc.labels {
			if want := `"range_m":` + l[0] + `,"loss":` + l[1] + ","; !strings.Contains(lines[i], want) {
				t.Errorf("Parse(%q) cell %d streams %s, want %s", tc.src, i, lines[i], want)
			}
			loss := l[1]
			if loss == "null" {
				loss = "-"
			}
			if rows[i][4] != l[0] || rows[i][5] != loss {
				t.Errorf("Parse(%q) cell %d's grid row %v, want range_m %s and loss %s", tc.src, i, rows[i], l[0], loss)
			}
		}
	}
}

func TestGridCapRejectsAbsurdExpansion(t *testing.T) {
	t.Parallel()
	var b strings.Builder
	b.WriteString("name = \"huge\"\nscenario = \"fig7-dapes\"\n\n[grid]\n")
	axis := func(name string, n int, val func(i int) string) {
		b.WriteString(name + " = [")
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(val(i))
		}
		b.WriteString("]\n")
	}
	// 20 x 20 x 20 = 8000 > MaxCells without any single absurd axis.
	axis("nodes", 20, func(i int) string { return "1" })
	axis("ranges", 20, func(i int) string { return "60.0" })
	axis("loss", 20, func(i int) string { return "0.1" })
	_, err := Parse([]byte(b.String()))
	if err == nil || !strings.Contains(err.Error(), "cells") {
		t.Fatalf("absurd grid accepted: %v", err)
	}
}

func TestCellSeedAndExpansionOrder(t *testing.T) {
	t.Parallel()
	p, err := Parse([]byte(smokeTOML))
	if err != nil {
		t.Fatal(err)
	}
	cells := p.Cells()
	if len(cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(cells))
	}
	// Row-major: nodes outermost, horizons innermost.
	want := []struct {
		nodes int
		rng   float64
		loss  float64
	}{
		{1, 60, 0}, {1, 60, 0.1}, {1, 80, 0}, {1, 80, 0.1},
		{2, 60, 0}, {2, 60, 0.1}, {2, 80, 0}, {2, 80, 0.1},
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if c.Nodes != want[i].nodes || c.Range != want[i].rng || c.Loss != want[i].loss {
			t.Fatalf("cell %d = (%d, %g, %g), want %+v", i, c.Nodes, c.Range, c.Loss, want[i])
		}
		if c.Seed != CellSeed(p.Seed, i) || c.Scale.BaseSeed != c.Seed {
			t.Fatalf("cell %d seed %d, want CellSeed=%d", i, c.Seed, CellSeed(p.Seed, i))
		}
		if c.Scale.LossRate != c.Loss || c.Scale.Horizon != c.Horizon || c.Scale.Trials != p.Trials {
			t.Fatalf("cell %d scale not derived from coordinates: %+v", i, c.Scale)
		}
		if c.Scale.Stationary != p.Base.Stationary*c.Nodes || c.Scale.MobileDown != p.Base.MobileDown*c.Nodes {
			t.Fatalf("cell %d node mix not multiplied: %+v", i, c.Scale)
		}
		if len(c.Scale.Ranges) != 1 || c.Scale.Ranges[0] != c.Range {
			t.Fatalf("cell %d Scale.Ranges = %v", i, c.Scale.Ranges)
		}
	}
	// Seeds are distinct and stable.
	seen := map[int64]bool{}
	for _, c := range cells {
		if seen[c.Seed] {
			t.Fatalf("duplicate cell seed %d", c.Seed)
		}
		seen[c.Seed] = true
	}
}
