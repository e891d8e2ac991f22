// Package plan is the declarative sweep harness and the one reader of
// input files. A plan file (a TOML subset) names a catalog scenario (or
// several), a parameter grid (base seed x node-mix multiplier x WiFi range
// x loss rate x horizon, plus Scale overrides) and a trial count. The
// harness expands the grid into cells, fans cells across a worker pool,
// streams per-cell results as JSON-lines, and renders the run report — so
// "add a scenario configuration" is a config line, not a Go file (the
// TestGround test-plan shape). A fault file (`dapes-sim -faults`) is a
// plan's [faults] section, read by the same reader and key table
// (ParseFaults).
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
	"time"

	"dapes/internal/experiment"
)

const (
	// MaxCells bounds a plan's grid expansion. Sweeps reach
	// millions-of-users scale through large N per cell, not through
	// millions of cells; the bound keeps a typo'd axis from exploding the
	// expansion (and keeps the parser OOM-free under fuzzing).
	MaxCells = 4096
	// MaxNodeMultiplier bounds the node-mix multiplier axis. Dense
	// scenarios multiply the mix again internally (urban-grid-xl is 25x),
	// so even modest values here reach six-figure node counts.
	MaxNodeMultiplier = 1000
)

// cellSeedStride spaces cell base seeds. It is much larger than the
// TrialSeed stride (7919), so two cells' trial seeds cannot collide while
// Trials <= experiment.MaxTrials/8; even a collision would only correlate
// two cells statistically — determinism never depends on seed uniqueness.
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

// Plan is one declarative sweep: the scenarios and the grid they run on.
type Plan struct {
	// Name identifies the plan in output streams and reports.
	Name string
	// Summary is a one-line description for listings.
	Summary string
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

	// set lists the keys the plan file set on an axis a scenario may
	// refuse, in file-table order; Validate asks each scenario about them.
	set []setKey
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

// ApplyDefaults fills empty grid axes from the base scale: one implicit
// point per axis, so a plan only spells out the axes it actually sweeps.
// The ranges axis takes all the base scale's ranges, or only the first
// when a scenario of the plan fixes its world's range: such a world would
// run once per label.
func (p *Plan) ApplyDefaults() {
	if len(p.Grid.Nodes) == 0 {
		p.Grid.Nodes = []int{1}
	}
	if len(p.Grid.Ranges) == 0 {
		p.Grid.Ranges = append([]float64(nil), p.Base.Ranges...)
		if p.fixes(experiment.AxisRange) {
			p.Grid.Ranges = p.Grid.Ranges[:min(1, len(p.Grid.Ranges))]
		}
	}
	if len(p.Grid.Loss) == 0 {
		p.Grid.Loss = []float64{p.Base.LossRate}
	}
	if len(p.Grid.Horizons) == 0 {
		p.Grid.Horizons = []time.Duration{p.Base.Horizon}
	}
}

// fixes reports whether a scenario of the plan fixes axis a.
func (p *Plan) fixes(a experiment.Axis) bool {
	for _, name := range p.Grid.Scenarios {
		if sc, err := experiment.Find(name); err == nil && sc.Fixes(a) {
			return true
		}
	}
	return false
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
// the catalog (with Find's near-miss suggestions), the keys the file set
// against what each scenario refuses, grid bounds, and every cell's Scale.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("plan: name is required")
	}
	if len(p.Grid.Scenarios) == 0 {
		return fmt.Errorf("plan %q: scenario is required", p.Name)
	}
	// A key a scenario refuses fails the plan before any cell runs: its
	// cells would run one world under labels that never ran, or a fault
	// plan the world never applies.
	for _, name := range p.Grid.Scenarios {
		sc, err := experiment.Find(name)
		if err != nil {
			return fmt.Errorf("plan %q: %w", p.Name, err)
		}
		for _, k := range p.set {
			if why := sc.Refuses(p.Base, k.axis); why != "" {
				return fmt.Errorf("plan %q: scenario %s %s: drop %s", p.Name, name, why, k.path)
			}
		}
	}
	for i, n := range p.Grid.Nodes {
		if n < 1 || n > MaxNodeMultiplier {
			return fmt.Errorf("plan %q: grid.nodes[%d] = %d, must be in [1, %d]", p.Name, i, n, MaxNodeMultiplier)
		}
	}
	if _, err := p.NumCells(); err != nil {
		return err
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
