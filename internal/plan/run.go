package plan

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"dapes/internal/experiment"
	"dapes/internal/par"
)

// CellResult is one grid cell's aggregate, the JSON-lines record the
// harness streams. Field order is fixed by this struct, and every value is
// a pure function of the plan file, so the stream is byte-identical across
// worker counts and process runs.
type CellResult struct {
	Plan     string `json:"plan"`
	Cell     int    `json:"cell"`
	Scenario string `json:"scenario"`
	// Grid coordinates, each the value the cell ran at: a range or loss
	// rate the scenario's world fixes is its declared one, not the grid's
	// (experiment.Scenario.Range and Loss), and Loss is null for a cell
	// whose fault plan draws its loss from a bursty channel.
	Nodes      int      `json:"nodes"`
	RangeM     float64  `json:"range_m"`
	Loss       *float64 `json:"loss"`
	HorizonSec float64  `json:"horizon_sec"`
	// Seed is the cell's derived base seed (CellSeed(plan seed, cell)).
	Seed   int64 `json:"seed"`
	Trials int   `json:"trials"`
	// Aggregates: the paper's p90 statistics plus completion totals summed
	// over trials and the mean forwarding accuracy.
	DownloadP90Sec   float64 `json:"download_time_p90_sec"`
	TransmissionsP90 float64 `json:"transmissions_p90"`
	Completed        int     `json:"completed"`
	Downloaders      int     `json:"downloaders"`
	ForwardAccuracy  float64 `json:"forward_accuracy"`
}

// Options configures one plan execution.
type Options struct {
	// Workers bounds how many grid cells run concurrently; <= 1 is serial.
	// Within a cell, trials run serially — the plan's unit of fan-out is
	// the cell, and the worker count never changes any output byte.
	Workers int
	// Stream, when non-nil, receives one JSON line per cell in cell-index
	// order as results become available.
	Stream io.Writer
}

// Result is one completed plan run.
type Result struct {
	Plan  *Plan
	Cells []CellResult
}

// Run expands the plan's grid and executes every cell through the
// experiment Runner, fanning cells across Options.Workers goroutines.
// Results stream to Options.Stream strictly in cell-index order (cell i
// is written only after cells 0..i-1), which together with per-cell seed
// derivation makes the stream byte-identical for any worker count. Errors
// fail fast (par.ForEach): no new cells start once a cell or a stream write
// has failed, and the lowest-indexed recorded failure is reported.
func Run(p *Plan, opt Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cells := p.Cells()
	results := make([]CellResult, len(cells))
	st := &orderedStream{w: opt.Stream, done: make([]bool, len(cells)), results: results}

	err := par.ForEach(len(cells), opt.Workers, func(i int) error {
		c := cells[i]
		sc, err := experiment.Find(c.Scenario)
		if err != nil {
			return err
		}
		// Trials run serially inside a cell: Cells sets every cell's
		// Scale.Workers, the Runner's pool size, to zero.
		res, err := experiment.Runner{}.Run(sc, c.Scale, c.Range)
		if err != nil {
			return fmt.Errorf("cell %d (%s nodes=%d range=%gm loss=%g): %w", i, c.Scenario, c.Nodes, c.Range, c.Loss, err)
		}
		results[i] = cellResult(p, c, sc, res)
		if err := st.complete(i); err != nil {
			return fmt.Errorf("streaming results: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("plan %q: %w", p.Name, err)
	}
	return &Result{Plan: p, Cells: results}, nil
}

// orderedStream writes cell results as JSON lines strictly in index order:
// complete(i) marks cell i done — only a cell that succeeded gets here —
// and flushes the longest done prefix. The mutex serializes writers; the
// write error is sticky, and failing the cell that sees it stops the run.
type orderedStream struct {
	mu      sync.Mutex
	w       io.Writer
	next    int
	done    []bool
	results []CellResult
	err     error
}

func (s *orderedStream) complete(i int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[i] = true
	for s.next < len(s.done) && s.done[s.next] {
		if s.w != nil && s.err == nil {
			s.err = writeJSONLine(s.w, s.results[s.next])
		}
		s.next++
	}
	return s.err
}

// writeJSONLine emits one compact JSON object terminated by '\n'.
// encoding/json formats floats deterministically, so identical values
// always produce identical bytes.
func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// cellResult folds one cell's RunResult into the streamed record.
func cellResult(p *Plan, c Cell, sc *experiment.Scenario, r experiment.RunResult) CellResult {
	out := CellResult{
		Plan:             p.Name,
		Cell:             c.Index,
		Scenario:         c.Scenario,
		Nodes:            c.Nodes,
		RangeM:           r.Range,
		HorizonSec:       c.Horizon.Seconds(),
		Seed:             c.Seed,
		Trials:           len(r.Trials),
		DownloadP90Sec:   r.DownloadTime90.Seconds(),
		TransmissionsP90: r.Transmissions90,
	}
	if loss, ok := sc.Loss(c.Scale); ok {
		out.Loss = &loss
	}
	var accSum float64
	for _, tr := range r.Trials {
		out.Completed += tr.Completed
		out.Downloaders += tr.Downloaders
		accSum += tr.ForwardAccuracy
	}
	if len(r.Trials) > 0 {
		out.ForwardAccuracy = accSum / float64(len(r.Trials))
	}
	return out
}

// Tables renders the run report: the full grid table and, with a seeds
// axis, each configuration's spread over the seeds.
func (r *Result) Tables() []experiment.Table {
	grid := experiment.Table{
		Title: fmt.Sprintf("Plan %s: %s over %d cells", r.Plan.Name, strings.Join(r.Plan.Grid.Scenarios, ", "), len(r.Cells)),
		Note:  r.Plan.Summary,
		Header: []string{"cell", "scenario", "seed", "nodes", "range_m", "loss", "horizon_s",
			"download_p90_s", "tx_p90", "completed", "fwd_acc"},
	}
	for _, c := range r.Cells {
		grid.Rows = append(grid.Rows, []string{
			fmt.Sprintf("%d", c.Cell),
			c.Scenario,
			fmt.Sprintf("%d", c.Seed),
			fmt.Sprintf("%d", c.Nodes),
			fmt.Sprintf("%g", c.RangeM),
			c.lossLabel(),
			fmt.Sprintf("%g", c.HorizonSec),
			fmt.Sprintf("%.1f", c.DownloadP90Sec),
			fmt.Sprintf("%.0f", c.TransmissionsP90),
			fmt.Sprintf("%d/%d", c.Completed, c.Downloaders),
			fmt.Sprintf("%.2f", c.ForwardAccuracy),
		})
	}
	if len(r.Plan.Grid.Seeds) > 1 {
		return []experiment.Table{grid, r.spread()}
	}
	return []experiment.Table{grid}
}

// lossLabel is the loss column of the report tables: "-" for a cell that
// ran at no one loss rate.
func (c CellResult) lossLabel() string {
	if c.Loss == nil {
		return "-"
	}
	return fmt.Sprintf("%g", *c.Loss)
}

// spread is the report's seed-spread table: one row per configuration — a
// scenario at one point of the other axes — with each metric's median and
// quartiles over the plan's seeds axis. It is what a declared rebaseline
// compares old against new by: a distribution, not one seed's digits.
func (r *Result) spread() experiment.Table {
	seeds := len(r.Plan.Grid.Seeds)
	t := experiment.Table{
		Title: fmt.Sprintf("Plan %s: median [q1, q3] over %d seeds", r.Plan.Name, seeds),
		Header: []string{"scenario", "nodes", "range_m", "loss", "horizon_s",
			"download_s", "tx", "fwd_acc", "completed_frac"},
	}
	// Seeds is the second-outermost axis: the cells of one scenario are
	// `seeds` runs of `inner` configurations each.
	inner := len(r.Cells) / (len(r.Plan.Grid.Scenarios) * seeds)
	column := func(first int, value func(CellResult) float64, format string) string {
		vs := make([]float64, seeds)
		for i := range vs {
			vs[i] = value(r.Cells[first+i*inner])
		}
		sort.Float64s(vs)
		// Nearest rank, as the trial p90 is: the smallest value with at
		// least that share of the seeds at or below it.
		rank := func(num, den int) float64 { return vs[(len(vs)*num+den-1)/den-1] }
		return fmt.Sprintf(format+" ["+format+", "+format+"]", rank(1, 2), rank(1, 4), rank(3, 4))
	}
	for s := range r.Plan.Grid.Scenarios {
		for j := 0; j < inner; j++ {
			first := s*seeds*inner + j
			c := r.Cells[first]
			t.Rows = append(t.Rows, []string{
				c.Scenario,
				fmt.Sprintf("%d", c.Nodes),
				fmt.Sprintf("%g", c.RangeM),
				c.lossLabel(),
				fmt.Sprintf("%g", c.HorizonSec),
				column(first, func(c CellResult) float64 { return c.DownloadP90Sec }, "%.1f"),
				column(first, func(c CellResult) float64 { return c.TransmissionsP90 }, "%.0f"),
				column(first, func(c CellResult) float64 { return c.ForwardAccuracy }, "%.2f"),
				column(first, completedFraction, "%.2f"),
			})
		}
	}
	return t
}

// completedFraction is the share of a cell's downloaders that finished
// within the horizon, summed over its trials.
func completedFraction(c CellResult) float64 {
	if c.Downloaders == 0 {
		return 0
	}
	return float64(c.Completed) / float64(c.Downloaders)
}
