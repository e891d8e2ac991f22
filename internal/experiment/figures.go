package experiment

import (
	"fmt"

	"dapes/internal/core"
)

// Figure is one sweep of the paper's evaluation: every series at every WiFi
// range of the scale, each (range, series) cell one Runner.Run. Its panels
// are readings of that one grid — Fig. 9g and 9h plot the download time and
// the transmissions of the same four runs, as do Fig. 10a and 10b — so a
// sweep two panels share runs once.
type Figure struct {
	// ID selects every panel at once ("10"). It is empty where the paper has
	// no name for the sweep as a whole and the panels are asked for singly.
	ID     string
	Panels []Panel
	// Series are the sweep's columns. Table I has none: it is three one-run
	// scenarios, not a range sweep, and fills FigureResult.Scenarios instead.
	Series []Series
}

// IDs are the names the figure answers to: its own, if it has one, then each
// panel's.
func (f Figure) IDs() []string {
	var ids []string
	if f.ID != "" {
		ids = append(ids, f.ID)
	}
	for _, p := range f.Panels {
		ids = append(ids, p.ID)
	}
	return ids
}

// Panel is one table of a figure: which aggregate of each cell it prints.
type Panel struct {
	ID     string // what dapes-bench -only and BenchmarkFigure call it
	Title  string
	Metric Metric
	// Note, when set, derives the table's note from the grid.
	Note func(FigureResult) string
}

// Metric names the per-cell aggregate a panel plots.
type Metric int

const (
	// DownloadTime is RunResult.DownloadTime90, in seconds.
	DownloadTime Metric = iota
	// Transmissions is RunResult.Transmissions90, in frames.
	Transmissions
)

// Of reads the metric from one cell.
func (m Metric) Of(r RunResult) float64 {
	if m == Transmissions {
		return r.Transmissions90
	}
	return r.DownloadTime90.Seconds()
}

// metricFormat is how a panel prints each metric.
var metricFormat = [...]string{DownloadTime: "%.1f", Transmissions: "%.0f"}

// Series is one column of a figure: a catalog scenario under a design, run
// at every range.
type Series struct {
	Label string
	// Scenario is the catalog name of the column's workload.
	Scenario string
	// Design is the DAPES design the column runs. Zero, which is no valid
	// design, keeps the scale's own: the paper's at every preset scale, and
	// the one the baselines, which fix theirs, accept.
	Design core.Config
	// Files and Size multiply the scale's file count (Fig. 9e) and per-file
	// packet count (Fig. 9f) and label the column after the result; zero
	// leaves the scale alone.
	Files, Size int
}

// at resolves the series against the scale the figure runs at: the column's
// label and the scale its trials use.
func (sr Series) at(s Scale) (string, Scale) {
	if sr.Design != (core.Config{}) {
		s.Design = sr.Design
	}
	switch {
	case sr.Files > 0:
		s.NumFiles *= sr.Files
		return fmt.Sprintf("files=%d", s.NumFiles), s
	case sr.Size > 0:
		s.PacketsPerFile *= sr.Size
		return fmt.Sprintf("size=x%d", sr.Size), s
	}
	return sr.Label, s
}

// Figures is Section VI in the order dapes-bench prints it: Fig. 9a-9h,
// Table I, Fig. 10. Adding a figure is adding an entry.
var Figures = []Figure{
	{ // Four series: {same, random} start packet x {encounter-based,
		// local-neighborhood} RPF, bitmaps-first exchange as in the paper's setup.
		Panels: []Panel{{ID: "9a", Title: "Fig 9a: download time (s) vs WiFi range, RPF strategies"}},
		Series: []Series{
			{Label: "same/encounter", Scenario: "fig7-dapes", Design: fig9aConfig(core.EncounterBasedRPF, false)},
			{Label: "random/encounter", Scenario: "fig7-dapes", Design: fig9aConfig(core.EncounterBasedRPF, true)},
			{Label: "same/local", Scenario: "fig7-dapes", Design: fig9aConfig(core.LocalNeighborhoodRPF, false)},
			{Label: "random/local", Scenario: "fig7-dapes", Design: fig9aConfig(core.LocalNeighborhoodRPF, true)},
		},
	},
	{
		Panels: []Panel{{ID: "9b", Title: "Fig 9b: transmissions vs WiFi range, RPF x PEBA", Metric: Transmissions}},
		Series: []Series{
			{Label: "encounter(noPEBA)", Scenario: "fig7-dapes", Design: fig9bConfig(core.EncounterBasedRPF, false)},
			{Label: "local(noPEBA)", Scenario: "fig7-dapes", Design: fig9bConfig(core.LocalNeighborhoodRPF, false)},
			{Label: "encounter(PEBA)", Scenario: "fig7-dapes", Design: fig9bConfig(core.EncounterBasedRPF, true)},
			{Label: "local(PEBA)", Scenario: "fig7-dapes", Design: fig9bConfig(core.LocalNeighborhoodRPF, true)},
		},
	},
	{ // b bitmaps exchanged before the data download, b in {1,2,3,4,all}.
		Panels: []Panel{{ID: "9c", Title: "Fig 9c: download time (s), b bitmaps BEFORE data download"}},
		Series: bitmapSeries(core.BitmapsFirst),
	},
	{ // The same counts with the exchange interleaved (see Known deviations
		// in docs/EXPERIMENTS.md: the count is not read in this mode).
		Panels: []Panel{{ID: "9d", Title: "Fig 9d: download time (s), b bitmaps INTERLEAVED with data"}},
		Series: bitmapSeries(core.Interleaved),
	},
	{ // The file count scales while per-file size stays fixed (paper: 10,
		// 30, 50, 70 files).
		Panels: []Panel{{ID: "9e", Title: "Fig 9e: download time (s) vs number of files"}},
		Series: []Series{
			{Files: 1, Scenario: "fig7-dapes"},
			{Files: 3, Scenario: "fig7-dapes"},
			{Files: 5, Scenario: "fig7-dapes"},
			{Files: 7, Scenario: "fig7-dapes"},
		},
	},
	{ // Per-file size scales while the file count stays fixed (paper: 1, 5,
		// 10, 15 MB files).
		Panels: []Panel{{ID: "9f", Title: "Fig 9f: download time (s) vs file size"}},
		Series: []Series{
			{Size: 1, Scenario: "fig7-dapes"},
			{Size: 5, Scenario: "fig7-dapes"},
			{Size: 10, Scenario: "fig7-dapes"},
			{Size: 15, Scenario: "fig7-dapes"},
		},
	},
	{ // Single-hop vs multi-hop at forwarding probability 20/40/60%.
		Panels: []Panel{
			{ID: "9g", Title: "Fig 9g: download time (s) vs forwarding probability"},
			{ID: "9h", Title: "Fig 9h: transmissions vs forwarding probability", Metric: Transmissions},
		},
		Series: []Series{
			{Label: "single-hop", Scenario: "fig7-dapes", Design: hopConfig(false, 0.2)},
			{Label: "p=20%", Scenario: "fig7-dapes", Design: hopConfig(true, 0.2)},
			{Label: "p=40%", Scenario: "fig7-dapes", Design: hopConfig(true, 0.4)},
			{Label: "p=60%", Scenario: "fig7-dapes", Design: hopConfig(true, 0.6)},
		},
	},
	{ // The real-world feasibility scenarios of Fig. 8 (TableIRows).
		Panels: []Panel{{ID: "tableI", Title: "Table I: real-world feasibility scenarios (simulated traffic and protocol state)"}},
	},
	{ // The baseline comparison, plus Section VI-D's forwarding accuracy.
		ID: "10",
		Panels: []Panel{
			{ID: "10a", Title: "Fig 10a: download time (s), DAPES vs IP baselines"},
			{ID: "10b", Title: "Fig 10b: transmissions, DAPES vs IP baselines", Metric: Transmissions, Note: forwardAccuracyNote},
		},
		Series: []Series{
			{Label: "DAPES", Scenario: "fig7-dapes"},
			{Label: "Bithoc", Scenario: "fig7-bithoc"},
			{Label: "Ekta", Scenario: "fig7-ekta"},
		},
	},
}

func fig9aConfig(strategy core.StrategyKind, randomStart bool) core.Config {
	o := PaperDefaults()
	o.Strategy = strategy
	o.RandomStart = randomStart
	o.AdvertMode = core.BitmapsFirst
	o.BitmapsBefore = 0 // "fetch the bitmap of all the others"
	return o
}

func fig9bConfig(strategy core.StrategyKind, peba bool) core.Config {
	o := fig9aConfig(strategy, true)
	o.UsePEBA = peba
	return o
}

// bitmapSeries is Fig. 9c/9d's five columns: b bitmaps fetched before
// (BitmapsFirst) or during (Interleaved) the data download; 0 is all.
func bitmapSeries(mode core.AdvertMode) []Series {
	var series []Series
	for _, c := range []struct {
		label string
		b     int
	}{{"b=1", 1}, {"b=2", 2}, {"b=3", 3}, {"b=4", 4}, {"all", 0}} {
		o := PaperDefaults()
		o.AdvertMode = mode
		o.BitmapsBefore = c.b
		series = append(series, Series{Label: c.label, Scenario: "fig7-dapes", Design: o})
	}
	return series
}

func hopConfig(multihop bool, prob float64) core.Config {
	o := PaperDefaults()
	o.Multihop = multihop
	o.ForwardProb = prob
	return o
}

// FigureResult is a figure as numbers, before any rendering: Cells[i][j] is
// series j (labelled Labels[j]) at Ranges[i]. The paper's claims, dapes-bench
// and BenchmarkFigure all read this grid.
type FigureResult struct {
	Figure Figure
	Ranges []float64
	Labels []string
	Cells  [][]RunResult
	// Scenarios are Table I's rows, which it has in place of a grid.
	Scenarios []ScenarioResult
}

// Run is the one sweep: every (range, series) cell of the figure exactly
// once, each through Runner at s.Workers.
func (f Figure) Run(s Scale) (FigureResult, error) {
	res := FigureResult{Figure: f, Ranges: s.Ranges}
	if f.Series == nil {
		var err error
		res.Scenarios, err = TableIRows(s)
		return res, err
	}
	res.Labels = make([]string, len(f.Series))
	scens := make([]*Scenario, len(f.Series))
	scales := make([]Scale, len(f.Series))
	for j, sr := range f.Series {
		res.Labels[j], scales[j] = sr.at(s)
		var err error
		if scens[j], err = Find(sr.Scenario); err != nil {
			return res, err
		}
	}
	for _, r := range s.Ranges {
		row := make([]RunResult, len(f.Series))
		for j := range f.Series {
			var err error
			if row[j], err = (Runner{}).Run(scens[j], scales[j], r); err != nil {
				return res, err
			}
		}
		res.Cells = append(res.Cells, row)
	}
	return res, nil
}

// Table is the one renderer: the figure's given panel, in the organization
// the paper plots.
func (r FigureResult) Table(panel int) Table {
	p := r.Figure.Panels[panel]
	if r.Figure.Series == nil {
		return tableI(p.Title, r.Scenarios)
	}
	t := Table{Title: p.Title, Header: append([]string{"range(m)"}, r.Labels...)}
	for i, cells := range r.Cells {
		row := []string{fmt.Sprintf("%.0f", r.Ranges[i])}
		for _, cell := range cells {
			row = append(row, fmt.Sprintf(metricFormat[p.Metric], p.Metric.Of(cell)))
		}
		t.Rows = append(t.Rows, row)
	}
	if p.Note != nil {
		t.Note = p.Note(r)
	}
	return t
}

// forwardAccuracyNote is Section VI-D's statistic over the grid's first
// (DAPES) column: the mean accuracy of the trials that forwarded anything.
func forwardAccuracyNote(r FigureResult) string {
	var sum float64
	n := 0
	for _, cells := range r.Cells {
		for _, tr := range cells[0].Trials {
			if tr.ForwardAccuracy > 0 {
				sum += tr.ForwardAccuracy
				n++
			}
		}
	}
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("DAPES forwarding accuracy: %.0f%% of forwarded Interests brought data back (paper: 83%%)", 100*sum/float64(n))
}
