package plan

import (
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
optimize = ["min:download_time_p90_sec", "max:completed_fraction"]

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
	if len(p.Optimize) != 2 || p.Optimize[0].Metric != "download_time_p90_sec" || p.Optimize[0].Maximize {
		t.Fatalf("optimize lost: %+v", p.Optimize)
	}
	if !p.Optimize[1].Maximize {
		t.Fatalf("max: direction lost: %+v", p.Optimize[1])
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
		{"bad optimize", `name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n" + `optimize = ["min:warp_factor"]`, "warp_factor"},
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

// TestFixedAxesPassWhenLeftOut: a Fig.-8 plan that leaves out the axes its
// world fixes, and sweeps what the world does read, is accepted, and gets
// one point on the range axis rather than one cell per base-scale range
// under labels that never ran; the same axes stay open to a scenario that
// reads them.
func TestFixedAxesPassWhenLeftOut(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		src   string
		cells int
	}{
		{`name = "x"` + "\n" + `scenario = "fig8a-carrier"` + "\n\n[grid]\nseeds = [1, 2]\nhorizons = [\"10m\", \"20m\"]", 4},
		{`name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[grid]\nranges = [20.0]\nloss = [0.0, 0.5]\nnodes = [1, 4]", 4},
		{`name = "x"` + "\n" + `scenario = "fig7-dapes"` + "\n\n[scale]\nloss = 0.3\nstationary = 9\narea_side = 900.0", 3},
		{`name = "x"` + "\n" + `scenario = "fig8a-carrier"`, 1},
		{`name = "x"` + "\n\n[grid]\nscenarios = [\"fig7-dapes\", \"fig8c-mobile\"]", 2},
	} {
		p, err := Parse([]byte(tc.src))
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		if got := len(p.Cells()); got != tc.cells {
			t.Errorf("Parse(%q) expands to %d cells, want %d", tc.src, got, tc.cells)
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

func TestParseTargetDirections(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		in       string
		metric   string
		maximize bool
	}{
		{"download_time_p90_sec", "download_time_p90_sec", false}, // natural min
		{"completed_fraction", "completed_fraction", true},        // natural max
		{"min:completed_fraction", "completed_fraction", false},   // explicit override
		{"max:transmissions_p90", "transmissions_p90", true},      // explicit override
	} {
		got, err := parseTarget(tc.in)
		if err != nil {
			t.Fatalf("parseTarget(%q): %v", tc.in, err)
		}
		if got.Metric != tc.metric || got.Maximize != tc.maximize {
			t.Fatalf("parseTarget(%q) = %+v", tc.in, got)
		}
	}
	if _, err := parseTarget("median:download_time_p90_sec"); err == nil {
		t.Fatal("bogus direction accepted")
	}
}
