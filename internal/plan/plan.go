// Package plan is the declarative sweep harness: a plan file (TOML subset
// or JSON) names a catalog scenario (or several), a parameter grid
// (base seed x node-mix multiplier x WiFi range x loss rate x horizon, plus
// Scale overrides), a trial count, and the metrics the sweep optimizes. The
// harness expands the grid into cells, fans cells across a worker pool, streams per-cell
// results as JSON-lines, and renders run reports — so "add a scenario
// configuration" is a config line, not a Go file (the TestGround test-plan
// shape).
//
// Determinism contract: cell c's trials seed from
// TrialSeed(CellSeed(plan.Seed, c), t), and results stream in cell-index
// order, so a plan run's byte output is a pure function of the plan file —
// identical for any -workers value, serial or fanned out. The grid expands
// row-major with axes ordered scenarios, seeds, nodes, ranges, loss,
// horizons; that order is part of the contract (cell indices, and therefore
// derived seeds, depend on it).
package plan

import (
	"fmt"
	"sort"
	"time"

	"dapes/internal/experiment"
)

const (
	// MaxCells bounds a plan's grid expansion. Sweeps reach
	// millions-of-users scale through large N per cell, not through
	// millions of cells; the bound keeps a typo'd axis from exploding the
	// expansion (and keeps the parser OOM-free under fuzzing).
	MaxCells = 4096
	// MaxTrials bounds per-cell trials (the paper reports 10).
	MaxTrials = 1000
	// MaxNodeMultiplier bounds the node-mix multiplier axis. Dense
	// scenarios multiply the mix again internally (urban-grid-xl is 25x),
	// so even modest values here reach six-figure node counts.
	MaxNodeMultiplier = 1000
)

// cellSeedStride spaces cell base seeds. It is much larger than the
// TrialSeed stride (7919), so two cells' trial seeds cannot collide while
// Trials <= MaxTrials/8; even a collision would only correlate two cells
// statistically — determinism never depends on seed uniqueness.
const cellSeedStride = 1_000_003

// CellSeed derives grid cell c's base seed from the plan seed, exactly as
// TrialSeed derives trial seeds from a scenario's base seed: every runner —
// serial or parallel — must obtain cell seeds here so the schedule is a
// pure function of (plan seed, cell index). Like TrialSeed, the arithmetic
// is defined as two's-complement wrap (computed in uint64), so a plan seed
// near the int64 boundary derives the same cell seeds on every platform.
func CellSeed(base int64, cell int) int64 {
	return int64(uint64(base) + uint64(int64(cell))*cellSeedStride)
}

// Plan is one declarative sweep: a scenario, a grid, and the metrics the
// sweep is optimizing.
type Plan struct {
	// Name identifies the plan in output streams and reports.
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Optimize states the target metrics (best/worst cells are reported
	// per target).
	Optimize []Target
	// Trials is the per-cell trial count.
	Trials int
	// Seed is the plan-level base seed; cell c derives CellSeed(Seed, c).
	Seed int64
	// Grid holds the swept axes.
	Grid Grid
	// Base is the Scale every cell starts from: ReducedScale with the plan
	// file's [scale] overrides applied. Cells then override LossRate,
	// Horizon, the node mix, and BaseSeed from their grid coordinates.
	Base experiment.Scale
}

// Grid is the swept parameter space; the cell list is the cartesian
// product of the axes, row-major in field order.
type Grid struct {
	// Scenarios is the scenario axis — experiment catalog names, the same
	// grid and scale under each. A plan file's `scenario` key is shorthand
	// for one entry. Required: it has no default.
	Scenarios []string
	// Seeds, when set, is a base-seed axis: a cell runs at exactly that
	// base seed — what `dapes-sim -seed N` runs — instead of one derived
	// from its index, and the report adds each configuration's spread over
	// the seeds (Result.Tables). Empty keeps the one derived seed per cell.
	Seeds []int64
	// Nodes multiplies the Scale node mix (stationary, mobile downloaders,
	// pure forwarders, intermediates) — the "N" axis. Density-class
	// scenarios multiply again internally (urban-grid runs 5x, -xl 25x).
	Nodes []int
	// Ranges is the WiFi range axis in meters (the paper sweeps 20-100).
	Ranges []float64
	// Loss is the per-reception loss-probability axis in [0, 1). Churn-
	// class workloads (convoy-churn, partitioned-merge) realize churn
	// through this axis and Nodes.
	Loss []float64
	// Horizons is the per-trial virtual-time-limit axis.
	Horizons []time.Duration
}

// Target is one optimize entry: a metric and a direction.
type Target struct {
	// Metric is a CellResult metric name (see Metrics).
	Metric string
	// Maximize reports whether bigger is better for this target.
	Maximize bool
}

func (t Target) String() string {
	dir := "min"
	if t.Maximize {
		dir = "max"
	}
	return dir + ":" + t.Metric
}

// metricInfo describes one optimizable CellResult metric.
type metricInfo struct {
	doc      string
	maximize bool // default direction
	value    func(CellResult) float64
}

// metrics is the optimize vocabulary; plan files referencing anything else
// are rejected at validation.
var metrics = map[string]metricInfo{
	"download_time_p90_sec": {
		doc:   "90th-percentile average download time across trials",
		value: func(c CellResult) float64 { return c.DownloadP90Sec },
	},
	"transmissions_p90": {
		doc:   "90th-percentile total frames on the air",
		value: func(c CellResult) float64 { return c.TransmissionsP90 },
	},
	"completed_fraction": {
		doc:      "downloaders finishing within the horizon, summed over trials",
		maximize: true,
		value: func(c CellResult) float64 {
			if c.Downloaders == 0 {
				return 0
			}
			return float64(c.Completed) / float64(c.Downloaders)
		},
	},
	"forward_accuracy": {
		doc:      "mean forwarded-Interests-answered fraction (DAPES scenarios)",
		maximize: true,
		value:    func(c CellResult) float64 { return c.ForwardAccuracy },
	},
}

// MetricNames returns the optimize vocabulary in sorted order.
func MetricNames() []string {
	out := make([]string, 0, len(metrics))
	for name := range metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// parseTarget resolves an optimize entry: "min:metric", "max:metric", or a
// bare metric name taking the metric's natural direction.
func parseTarget(s string) (Target, error) {
	t := Target{Metric: s}
	explicit := false
	if len(s) > 4 && s[:4] == "min:" {
		t.Metric, t.Maximize, explicit = s[4:], false, true
	} else if len(s) > 4 && s[:4] == "max:" {
		t.Metric, t.Maximize, explicit = s[4:], true, true
	}
	info, ok := metrics[t.Metric]
	if !ok {
		return Target{}, fmt.Errorf("unknown optimize metric %q (known: %v)", t.Metric, MetricNames())
	}
	if !explicit {
		t.Maximize = info.maximize
	}
	return t, nil
}

// ApplyDefaults fills empty grid axes from the base scale: one implicit
// point per axis, so a plan only spells out the axes it actually sweeps.
func (p *Plan) ApplyDefaults() {
	if len(p.Grid.Nodes) == 0 {
		p.Grid.Nodes = []int{1}
	}
	if len(p.Grid.Ranges) == 0 {
		p.Grid.Ranges = append([]float64(nil), p.Base.Ranges...)
	}
	if len(p.Grid.Loss) == 0 {
		p.Grid.Loss = []float64{p.Base.LossRate}
	}
	if len(p.Grid.Horizons) == 0 {
		p.Grid.Horizons = []time.Duration{p.Base.Horizon}
	}
}

// NumCells returns the grid's cell count, or an error when the product
// overflows or exceeds MaxCells. It never materializes the cells, so an
// absurd plan file fails by arithmetic, not by allocation.
func (p *Plan) NumCells() (int, error) {
	n := 1
	for _, axis := range []int{max(1, len(p.Grid.Scenarios)), max(1, len(p.Grid.Seeds)),
		len(p.Grid.Nodes), len(p.Grid.Ranges), len(p.Grid.Loss), len(p.Grid.Horizons)} {
		if axis == 0 {
			return 0, fmt.Errorf("plan %q: empty grid axis (ApplyDefaults not run?)", p.Name)
		}
		if n > MaxCells/axis {
			return 0, fmt.Errorf("plan %q: grid expands past %d cells", p.Name, MaxCells)
		}
		n *= axis
	}
	return n, nil
}

// Validate checks the whole plan: identity fields, the scenario against
// the catalog (with Find's near-miss suggestions), trial and grid bounds,
// every optimize target, and the derived Scale of every cell.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("plan: name is required")
	}
	if len(p.Grid.Scenarios) == 0 {
		return fmt.Errorf("plan %q: scenario is required", p.Name)
	}
	for _, name := range p.Grid.Scenarios {
		if _, err := experiment.Find(name); err != nil {
			return fmt.Errorf("plan %q: %w", p.Name, err)
		}
	}
	if p.Trials <= 0 || p.Trials > MaxTrials {
		return fmt.Errorf("plan %q: trials = %d, must be in [1, %d]", p.Name, p.Trials, MaxTrials)
	}
	for i, n := range p.Grid.Nodes {
		if n < 1 || n > MaxNodeMultiplier {
			return fmt.Errorf("plan %q: grid.nodes[%d] = %d, must be in [1, %d]", p.Name, i, n, MaxNodeMultiplier)
		}
	}
	if _, err := p.NumCells(); err != nil {
		return err
	}
	for i, t := range p.Optimize {
		if _, ok := metrics[t.Metric]; !ok {
			return fmt.Errorf("plan %q: optimize[%d]: unknown metric %q (known: %v)",
				p.Name, i, t.Metric, MetricNames())
		}
	}
	// The base scale is validated first: its bounds keep the node counts
	// small enough that Cells multiplies them without wrapping.
	if err := p.Base.Validate(); err != nil {
		return fmt.Errorf("plan %q: scale: %w", p.Name, err)
	}
	// Cell-level scale validation catches bad axis values (negative loss,
	// zero horizon, non-positive ranges) with the cell's coordinates in
	// the message. The grid is bounded by MaxCells, so this stays cheap.
	for _, c := range p.Cells() {
		if err := c.Scale.Validate(); err != nil {
			return fmt.Errorf("plan %q: cell %d (nodes=%d range=%gm loss=%g horizon=%v): %w",
				p.Name, c.Index, c.Nodes, c.Range, c.Loss, c.Horizon, err)
		}
	}
	return nil
}

// Cell is one grid point, fully resolved: its coordinates, derived seed,
// and the Scale a trial runner needs.
type Cell struct {
	// Index is the row-major position in the expansion; output streams in
	// this order and the cell seed derives from it.
	Index int
	// Scenario, Nodes, Range, Loss, Horizon are the cell's grid coordinates.
	Scenario string
	Nodes    int
	Range    float64
	Loss     float64
	Horizon  time.Duration
	// Seed is the cell's Grid.Seeds coordinate, or CellSeed(plan.Seed,
	// Index) without that axis; trials run at TrialSeed(Seed, t).
	Seed int64
	// Scale is the fully derived per-cell scale.
	Scale experiment.Scale
}

// Cells expands the grid row-major (scenarios, then seeds, nodes, ranges,
// loss, horizons). Callers must have run ApplyDefaults; Validate bounds the
// expansion to MaxCells.
func (p *Plan) Cells() []Cell {
	g := p.Grid
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0} // one point per cell, derived from its index below
	}
	cells := make([]Cell, 0, len(g.Scenarios)*len(seeds)*len(g.Nodes)*len(g.Ranges)*len(g.Loss)*len(g.Horizons))
	for _, sc := range g.Scenarios {
		for _, seed := range seeds {
			for _, n := range g.Nodes {
				for _, r := range g.Ranges {
					for _, l := range g.Loss {
						for _, h := range g.Horizons {
							idx := len(cells)
							s := p.Base
							s.Trials = p.Trials
							s.LossRate = l
							s.Horizon = h
							s.Stationary *= n
							s.MobileDown *= n
							s.PureForwarders *= n
							s.Intermediates *= n
							s.Ranges = []float64{r}
							s.Workers = 0 // trial fan-out is the plan runner's job
							s.BaseSeed = seed
							if len(g.Seeds) == 0 {
								s.BaseSeed = CellSeed(p.Seed, idx)
							}
							cells = append(cells, Cell{
								Index:    idx,
								Scenario: sc,
								Nodes:    n,
								Range:    r,
								Loss:     l,
								Horizon:  h,
								Seed:     s.BaseSeed,
								Scale:    s,
							})
						}
					}
				}
			}
		}
	}
	return cells
}
