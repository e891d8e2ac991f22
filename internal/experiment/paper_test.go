package experiment

import (
	"fmt"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// claim is one statement of the paper's Section VI and the cells of
// experiment.Figures that decide it. TestPaperClaims (with the two Fig.
// 9g/9h tests) runs every cell the table needs once and fails on an
// Asserted row that does not hold, or on a Deviation row that now does.
// docs/EXPERIMENTS.md names every row by id.
type claim struct {
	id        string
	panel     string // an id of the Figures entry whose grid decides the row
	statement string
	series    []string // the labels compared, in the relation's order
	scale     claimScale
	seeds     int64     // base seeds 1..seeds
	ranges    []float64 // nil where the figure has no range axis (Table I)
	stat      statistic
	metric    Metric
	quant     quantifier
	rel       relation
	// deviation is empty for an Asserted row; for a Deviation row it is why
	// the tree does not do what the paper reports.
	deviation string
}

// claimScale is the scale a row's cells run at: a named scale and, where
// non-zero, its trial count.
type claimScale struct {
	name   string // "quick" or "reduced"
	trials int
}

func (c claimScale) scale() Scale {
	s := QuickScale()
	if c.name == "reduced" {
		s = ReducedScale()
	}
	if c.trials > 0 {
		s.Trials = c.trials
	}
	s.Workers = 4 // never changes a result
	return s
}

// statistic is what a row reads from one (seed, range, series) cell.
type statistic int

const (
	p90        statistic = iota // the cell's 90th percentile (Metric.Of), as its panel prints it
	trialMean                   // the mean over the cell's trials
	unfinished                  // the downloads its trials left unfinished
)

func (st statistic) of(r RunResult, m Metric) float64 {
	switch st {
	case trialMean:
		var sum float64
		for _, tr := range r.Trials {
			if m == Transmissions {
				sum += float64(tr.Transmissions)
			} else {
				sum += tr.AvgDownloadTime.Seconds()
			}
		}
		return sum / float64(len(r.Trials))
	case unfinished:
		var n int
		for _, tr := range r.Trials {
			n += tr.Downloaders - tr.Completed
		}
		return float64(n)
	}
	return m.Of(r)
}

// quantifier says over which values of a row's seeds the relation must
// hold, at each of its ranges.
type quantifier int

const (
	everySeed quantifier = iota // each seed's values
	seedMean                    // the means over the seeds
)

// relation is what a row asserts of its series' values, taken in order.
type relation int

const (
	less    relation = iota // each below the next: strictly increasing
	atMost                  // each at most the next
	differs                 // not all equal
	zero                    // every one zero
)

// over is the relation as it reads over the series it compares.
func (rel relation) over(series []string) string {
	switch rel {
	case differs:
		return strings.Join(series, ", ") + " differ"
	case zero:
		return strings.Join(series, ", ") + " = 0"
	}
	return strings.Join(series, map[relation]string{less: " < ", atMost: " ≤ "}[rel])
}

func (rel relation) holds(v []float64) bool {
	switch rel {
	case differs:
		return slices.ContainsFunc(v, func(x float64) bool { return x != v[0] })
	case zero:
		return !slices.ContainsFunc(v, func(x float64) bool { return x != 0 })
	}
	for i := 1; i < len(v); i++ {
		if v[i-1] > v[i] || rel == less && v[i-1] == v[i] {
			return false
		}
	}
	return true
}

// noRange is the one row of a figure with no range axis: Table I's
// scenarios (see grid).
const noRange = 0

// claims is Section VI as this tree reproduces it, one row per statement.
// The statements are quoted as docs/EXPERIMENTS.md and the Figures table
// quote the paper.
var claims = []claim{
	{
		id: "9a-random-start-faster", panel: "9a",
		statement: "With every peer breaking rarity ties by its own random permutation, first requests diversify across the swarm and downloads finish sooner than when every peer starts at the same packet (Section VI-C).",
		series:    []string{"random/local", "same/local"},
		scale:     claimScale{"reduced", 8}, seeds: 1, ranges: []float64{60},
		stat: trialMean, metric: DownloadTime, quant: everySeed, rel: less,
	},
	{
		id: "9a-random-start-fewer-frames", panel: "9a",
		statement: "Random start packets put fewer frames on the air than a common start packet (Section VI-C).",
		series:    []string{"random/local", "same/local"},
		scale:     claimScale{"reduced", 8}, seeds: 1, ranges: []float64{60},
		stat: trialMean, metric: Transmissions, quant: everySeed, rel: less,
	},
	{
		id: "9d-interleaved-b-matters", panel: "9d",
		statement: "The number of bitmaps b a peer fetches while it downloads changes its download time (Fig. 9d).",
		series:    []string{"b=1", "b=2", "b=3", "b=4", "all"},
		scale:     claimScale{"quick", 0}, seeds: 1, ranges: []float64{40, 80},
		stat: p90, metric: DownloadTime, quant: everySeed, rel: differs,
		deviation: "core/fetch.go reads BitmapsBefore only under BitmapsFirst, so the five interleaved series are one configuration: 35.2 s at 40 m and 3.9 s at 80 m in every column",
	},
	{
		id: "9e-more-files-slower", panel: "9e",
		statement: "A collection of more files takes longer to download (Fig. 9e).",
		series:    []string{"files=5", "files=15", "files=25", "files=35"},
		scale:     claimScale{"quick", 0}, seeds: 5, ranges: []float64{40, 80},
		stat: p90, metric: DownloadTime, quant: seedMean, rel: less,
	},
	{
		id: "9f-larger-files-slower", panel: "9f",
		statement: "A collection of larger files takes longer to download (Fig. 9f).",
		series:    []string{"size=x1", "size=x5", "size=x10", "size=x15"},
		scale:     claimScale{"quick", 0}, seeds: 5, ranges: []float64{40, 80},
		stat: p90, metric: DownloadTime, quant: seedMean, rel: less,
	},
	{
		id: "9g-multihop-faster", panel: "9g",
		statement: "With intermediate nodes forwarding at p = 20%, downloads finish sooner than over single-hop exchanges alone (Section VI-C).",
		series:    []string{"p=20%", "single-hop"},
		scale:     claimScale{"quick", 0}, seeds: 3, ranges: []float64{40, 80},
		stat: p90, metric: DownloadTime, quant: everySeed, rel: less,
	},
	{
		// The sparse range is left out: at 40 m a trial's frames follow its
		// download time, and thirty seeds do not order the columns.
		id: "9h-frames-grow-with-p", panel: "9h",
		statement: "Forwarding more often puts no fewer frames on the air (Fig. 9h).",
		series:    []string{"p=20%", "p=40%", "p=60%"},
		scale:     claimScale{"quick", 0}, seeds: 30, ranges: []float64{80},
		stat: p90, metric: Transmissions, quant: seedMean, rel: atMost,
	},
	{
		id: "tableI-all-complete", panel: "tableI",
		statement: "Each of the three real-world scenarios completes its download (Table I).",
		series:    []string{"carrier (Fig 8a)", "repository (Fig 8b)", "mobile swarm (Fig 8c)"},
		scale:     claimScale{"quick", 0}, seeds: 5,
		stat: unfinished, quant: everySeed, rel: zero,
	},
	{
		id: "tableI-carrier-slower-than-repository", panel: "tableI",
		statement: "The data carrier of Fig. 8a, who has to walk the collection across, is slower than the repository of Fig. 8b (Table I).",
		series:    []string{"repository (Fig 8b)", "carrier (Fig 8a)"},
		scale:     claimScale{"quick", 0}, seeds: 5,
		stat: p90, metric: DownloadTime, quant: seedMean, rel: less,
	},
	{
		id: "tableI-carrier-slower-than-mobile", panel: "tableI",
		statement: "The data carrier of Fig. 8a is slower than the mobile swarm of Fig. 8c (Table I).",
		series:    []string{"mobile swarm (Fig 8c)", "carrier (Fig 8a)"},
		scale:     claimScale{"quick", 0}, seeds: 5,
		stat: p90, metric: DownloadTime, quant: seedMean, rel: less,
	},
	{
		id: "10a-dapes-faster-than-bithoc", panel: "10a",
		statement: "DAPES downloads faster than Bithoc, IP-based sharing over a MANET (Fig. 10a).",
		series:    []string{"DAPES", "Bithoc"},
		scale:     claimScale{"quick", 4}, seeds: 3, ranges: []float64{40, 80},
		stat: trialMean, metric: DownloadTime, quant: everySeed, rel: less,
	},
	{
		id: "10a-dapes-faster-than-ekta", panel: "10a",
		statement: "DAPES downloads faster than Ekta, IP-based sharing over a DHT (Fig. 10a).",
		series:    []string{"DAPES", "Ekta"},
		scale:     claimScale{"quick", 4}, seeds: 3, ranges: []float64{40, 80},
		stat: trialMean, metric: DownloadTime, quant: everySeed, rel: less,
	},
	{
		id: "10b-dapes-fewer-frames-than-bithoc", panel: "10b",
		statement: "DAPES puts fewer frames on the air than Bithoc (Fig. 10b).",
		series:    []string{"DAPES", "Bithoc"},
		scale:     claimScale{"quick", 4}, seeds: 3, ranges: []float64{40, 80},
		stat: trialMean, metric: Transmissions, quant: everySeed, rel: less,
	},
	{
		id: "10b-dapes-fewer-frames-than-ekta", panel: "10b",
		statement: "DAPES puts fewer frames on the air than Ekta (Fig. 10b).",
		series:    []string{"DAPES", "Ekta"},
		scale:     claimScale{"quick", 4}, seeds: 3, ranges: []float64{40, 80},
		stat: trialMean, metric: Transmissions, quant: everySeed, rel: less,
	},
}

// gridKey names one Figure.Run of a figure entry: the scale and the base
// seed it ran at.
type gridKey struct {
	scale claimScale
	seed  int64
}

// grid is res as a Labels x Ranges grid of cells. Table I's scenarios
// become one row, at noRange, of one-trial cells of one downloader each.
func grid(res FigureResult) FigureResult {
	if res.Figure.Series != nil {
		return res
	}
	row := make([]RunResult, len(res.Scenarios))
	res.Labels = nil
	for j, sc := range res.Scenarios {
		done := 0
		if sc.Completed {
			done = 1
		}
		res.Labels = append(res.Labels, sc.Name)
		row[j] = RunResult{
			Trials:          []TrialResult{{AvgDownloadTime: sc.DownloadTime, Transmissions: sc.Transmissions, Completed: done, Downloaders: 1}},
			DownloadTime90:  sc.DownloadTime,
			Transmissions90: float64(sc.Transmissions),
		}
	}
	res.Ranges, res.Cells = []float64{noRange}, [][]RunResult{row}
	return res
}

// verdict evaluates the row over grids: whether it holds, and a report of
// the means over seeds it compared, each series' completed/downloaders
// count, and where it fails. It errs, naming what is missing, on a row that
// compares no cells or reads one no grid has, so a typo cannot pass.
func (c claim) verdict(grids map[gridKey]FigureResult) (bool, string, error) {
	least := 2
	if c.rel == zero {
		least = 1
	}
	ranges := c.ranges
	if ranges == nil {
		ranges = []float64{noRange}
	}
	switch {
	case len(c.series) < least:
		return false, "", fmt.Errorf("%s compares %d series", c.id, len(c.series))
	case c.seeds < 1 || len(ranges) == 0:
		return false, "", fmt.Errorf("%s compares no cell: %d seeds, ranges %v", c.id, c.seeds, ranges)
	}
	var report strings.Builder
	var fails []string
	for _, r := range ranges {
		mean := make([]float64, len(c.series))
		done := make([]int, len(c.series))
		total := make([]int, len(c.series))
		for seed := int64(1); seed <= c.seeds; seed++ {
			g, ok := grids[gridKey{c.scale, seed}]
			if !ok {
				return false, "", fmt.Errorf("%s: no grid at seed %d, %v", c.id, seed, c.scale)
			}
			i := slices.Index(g.Ranges, r)
			if i < 0 {
				return false, "", fmt.Errorf("%s: no cell at %g m, seed %d (grid has %v)", c.id, r, seed, g.Ranges)
			}
			vals := make([]float64, len(c.series))
			for k, label := range c.series {
				j := slices.Index(g.Labels, label)
				if j < 0 {
					return false, "", fmt.Errorf("%s: no series %q in panel %s (has %q)", c.id, label, c.panel, g.Labels)
				}
				cell := g.Cells[i][j]
				vals[k] = c.stat.of(cell, c.metric)
				mean[k] += vals[k] / float64(c.seeds)
				for _, tr := range cell.Trials {
					done[k] += tr.Completed
					total[k] += tr.Downloaders
				}
			}
			if c.quant == everySeed && !c.rel.holds(vals) {
				fails = append(fails, fmt.Sprintf("seed %d%s: %.1f", seed, at(r), vals))
			}
		}
		fmt.Fprintf(&report, "  mean over seeds 1-%d%s:", c.seeds, at(r))
		for k, label := range c.series {
			fmt.Fprintf(&report, " %s %.1f (%d/%d done)", label, mean[k], done[k], total[k])
		}
		report.WriteString("\n")
		if c.quant == seedMean && !c.rel.holds(mean) {
			fails = append(fails, fmt.Sprintf("the mean over seeds 1-%d%s", c.seeds, at(r)))
		}
	}
	if fails != nil {
		fmt.Fprintf(&report, "  does not hold at %s", strings.Join(fails, "; "))
	} else {
		report.WriteString("  holds")
	}
	return fails == nil, report.String(), nil
}

// at names range r in a report; Table I has none.
func at(r float64) string {
	if r == noRange {
		return ""
	}
	return fmt.Sprintf(", %g m", r)
}

// only is f with just the series whose label at s is in labels: the
// columns a row reads.
func only(f Figure, s Scale, labels map[string]bool) Figure {
	f.Series = slices.DeleteFunc(slices.Clone(f.Series), func(sr Series) bool {
		l, _ := sr.at(s)
		return !labels[l]
	})
	return f
}

// TestPaperClaims is the one driver of the claims table: one parallel
// subtest per Figures entry runs every (scale, seed, range) cell its rows
// need exactly once, through Figure.Run, then checks each row on those
// cells. 9g and 9h are panels of one entry, whose shared cells run once
// for TestPaperFig9gMultihopBeatsSingleHop and
// TestPaperFig9hTransmissionsGrowWithForwardProb instead.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("the paper's claims: minutes of quick- and reduced-scale trials")
	}
	t.Parallel()
	placed := map[string]bool{}
	for _, f := range Figures {
		rows := claimsOn(f.IDs()...)
		for _, c := range rows {
			placed[c.id] = true
		}
		if rows == nil || slices.Contains(f.IDs(), "9g") {
			continue
		}
		t.Run(strings.Join(f.IDs(), ","), func(t *testing.T) {
			t.Parallel()
			grids, err := runCells(f, rows)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, rows, grids)
		})
	}
	for _, c := range claims {
		if !placed[c.id] {
			t.Errorf("%s: no Figures entry has panel %q", c.id, c.panel)
		}
	}
}

// fig9gh runs the cells of the Fig. 9g/9h entry that either panel's rows
// read, once for both tests below.
var fig9gh = sync.OnceValues(func() (map[gridKey]FigureResult, error) {
	for _, f := range Figures {
		if slices.Contains(f.IDs(), "9g") {
			return runCells(f, claimsOn(f.IDs()...))
		}
	}
	return nil, fmt.Errorf("no Figures entry has panel 9g")
})

// TestPaperFig9gMultihopBeatsSingleHop checks the 9g rows of the claims
// table on the shared Fig. 9g/9h cells.
func TestPaperFig9gMultihopBeatsSingleHop(t *testing.T) {
	checkSharedPanel(t, "9g")
}

// TestPaperFig9hTransmissionsGrowWithForwardProb checks the 9h rows of the
// claims table on the shared Fig. 9g/9h cells.
func TestPaperFig9hTransmissionsGrowWithForwardProb(t *testing.T) {
	checkSharedPanel(t, "9h")
}

func checkSharedPanel(t *testing.T, panel string) {
	if testing.Short() {
		t.Skip("the paper's claims: minutes of quick- and reduced-scale trials")
	}
	t.Parallel()
	grids, err := fig9gh()
	if err != nil {
		t.Fatal(err)
	}
	rows := claimsOn(panel)
	if rows == nil {
		t.Fatalf("no row of the claims table has panel %q", panel)
	}
	checkRows(t, rows, grids)
}

// claimsOn is the rows of the claims table whose panel is one of panels.
func claimsOn(panels ...string) []claim {
	var rows []claim
	for _, c := range claims {
		if slices.Contains(panels, c.panel) {
			rows = append(rows, c)
		}
	}
	return rows
}

// runCells runs every (scale, seed) grid of f that rows read, once each,
// with only the ranges and series the rows compare.
func runCells(f Figure, rows []claim) (map[gridKey]FigureResult, error) {
	type need struct {
		ranges map[float64]bool
		labels map[string]bool
	}
	needs := map[gridKey]*need{}
	var keys []gridKey
	for _, c := range rows {
		for seed := int64(1); seed <= c.seeds; seed++ {
			k := gridKey{c.scale, seed}
			n := needs[k]
			if n == nil {
				n = &need{ranges: map[float64]bool{}, labels: map[string]bool{}}
				needs[k], keys = n, append(keys, k)
			}
			for _, r := range c.ranges {
				n.ranges[r] = true
			}
			for _, l := range c.series {
				n.labels[l] = true
			}
		}
	}
	grids := map[gridKey]FigureResult{}
	for _, k := range keys {
		n := needs[k]
		s := k.scale.scale()
		s.BaseSeed = k.seed
		if len(n.ranges) > 0 { // Table I has no range axis
			s.Ranges = slices.Sorted(maps.Keys(n.ranges))
		}
		res, err := only(f, s, n.labels).Run(s)
		if err != nil {
			return nil, fmt.Errorf("%v, seed %d: %w", k.scale, k.seed, err)
		}
		grids[k] = grid(res)
	}
	return grids, nil
}

// checkRows logs each row's verdict on grids and fails on an Asserted row
// that does not hold or a Deviation row that does.
func checkRows(t *testing.T, rows []claim, grids map[gridKey]FigureResult) {
	t.Helper()
	for _, c := range rows {
		holds, report, err := c.verdict(grids)
		if err != nil {
			t.Error(err)
			continue
		}
		status := "Asserted"
		if c.deviation != "" {
			status = "Deviation: " + c.deviation
		}
		t.Logf("%s [%s, %s]\n  %s\n  %s\n%s", c.id, c.panel, status, c.statement, c.rel.over(c.series), report)
		switch {
		case c.deviation == "" && !holds:
			t.Errorf("%s does not hold", c.id)
		case c.deviation != "" && holds:
			t.Errorf("%s holds now: flip to Asserted", c.id)
		}
	}
}

// TestClaimVerdicts runs the row checks on a hand-built grid: each relation
// and both quantifiers decide as written, and a row that reads a missing
// series, range or seed, or compares no cells, fails by name.
func TestClaimVerdicts(t *testing.T) {
	t.Parallel()
	sc := claimScale{"quick", 0}
	// cell is one (seed, range, series) cell whose trials took these many
	// seconds (and as many frames); a negative value is a trial that
	// finished nothing.
	cell := func(secs ...float64) RunResult {
		var trials []TrialResult
		for _, v := range secs {
			tr := TrialResult{AvgDownloadTime: time.Duration(math.Abs(v) * float64(time.Second)), Transmissions: uint64(math.Abs(v)), Downloaders: 1}
			if v >= 0 {
				tr.Completed = 1
			}
			trials = append(trials, tr)
		}
		dt, tx := aggregate(trials)
		return RunResult{Trials: trials, DownloadTime90: dt, Transmissions90: tx}
	}
	// At 40 m: seed 1 orders a < b < c; seed 2 has b below a, by less than
	// seed 1's margin, so the mean still orders them; every c trial at 40 m
	// leaves its download unfinished. At 80 m all three equal at both seeds.
	// Trial means and p90s order a and b oppositely at seed 1.
	grids := map[gridKey]FigureResult{
		{sc, 1}: {Labels: []string{"a", "b", "c"}, Ranges: []float64{40, 80}, Cells: [][]RunResult{
			{cell(1, 9), cell(6, 6), cell(-20)},
			{cell(2), cell(2), cell(2)},
		}},
		{sc, 2}: {Labels: []string{"a", "b", "c"}, Ranges: []float64{40, 80}, Cells: [][]RunResult{
			{cell(6), cell(5.5), cell(-20)},
			{cell(2), cell(2), cell(2)},
		}},
	}
	row := func(series []string, seeds int64, ranges []float64, st statistic, q quantifier, rel relation) claim {
		return claim{id: "row", panel: "9x", series: series, scale: sc, seeds: seeds, ranges: ranges, stat: st, metric: DownloadTime, quant: q, rel: rel}
	}
	m40, m80, both := []float64{40}, []float64{80}, []float64{40, 80}
	for _, tc := range []struct {
		name    string
		c       claim
		want    bool
		wantErr string
	}{
		{"less/every seed/seed 1", row([]string{"a", "b"}, 1, m40, p90, everySeed, less), false, ""}, // p90: 9 vs 6
		{"less/every seed/trial mean", row([]string{"a", "b"}, 1, m40, trialMean, everySeed, less), true, ""},
		{"less/every seed/seeds 1-2", row([]string{"a", "b"}, 2, m40, trialMean, everySeed, less), false, ""},
		{"less/seed mean", row([]string{"a", "b"}, 2, m40, trialMean, seedMean, less), true, ""},
		{"less/chain", row([]string{"a", "b", "c"}, 1, m40, trialMean, everySeed, less), true, ""},
		{"less/ties", row([]string{"a", "b"}, 2, m80, p90, seedMean, less), false, ""},
		{"at most/ties", row([]string{"a", "b", "c"}, 2, m80, p90, seedMean, atMost), true, ""},
		{"at most/descending", row([]string{"c", "a"}, 1, m40, trialMean, everySeed, atMost), false, ""},
		{"differs/equal", row([]string{"a", "b", "c"}, 2, m80, p90, everySeed, differs), false, ""},
		{"differs/one range equal", row([]string{"a", "b"}, 1, both, trialMean, everySeed, differs), false, ""},
		{"differs/unequal", row([]string{"a", "b"}, 2, m40, p90, everySeed, differs), true, ""},
		{"zero/finished", row([]string{"a", "b"}, 2, both, unfinished, everySeed, zero), true, ""},
		{"zero/unfinished", row([]string{"a", "c"}, 2, both, unfinished, everySeed, zero), false, ""},
		{"missing label", row([]string{"a", "bb"}, 1, m40, p90, everySeed, less), false, `no series "bb"`},
		{"missing range", row([]string{"a", "b"}, 1, []float64{60}, p90, everySeed, less), false, "no cell at 60 m"},
		{"missing seed", row([]string{"a", "b"}, 3, m40, p90, seedMean, less), false, "no grid at seed 3"},
		{"no range axis", row([]string{"a", "b"}, 1, nil, p90, everySeed, less), false, "no cell at 0 m"},
		{"no seeds", row([]string{"a", "b"}, 0, m40, p90, everySeed, less), false, "compares no cell"},
		{"no ranges", row([]string{"a", "b"}, 2, []float64{}, p90, seedMean, less), false, "compares no cell"},
		{"one series", row([]string{"a"}, 1, m40, p90, everySeed, less), false, "compares 1 series"},
		{"no series", row(nil, 1, m40, unfinished, everySeed, zero), false, "compares 0 series"},
	} {
		holds, report, err := tc.c.verdict(grids)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "row") {
				t.Errorf("%s: err = %v, want one naming the row and %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case holds != tc.want:
			t.Errorf("%s: holds = %v, want %v\n%s", tc.name, holds, tc.want, report)
		}
	}
}

// claimID is how docs/EXPERIMENTS.md names a row of the claims table.
var claimID = regexp.MustCompile("`((?:9[a-h]|10[ab]|tableI)-[a-z0-9-]+)`")

// TestClaimsMatchExperimentsDoc: row ids are unique, every row id appears in
// docs/EXPERIMENTS.md, and every row id named there is a row.
func TestClaimsMatchExperimentsDoc(t *testing.T) {
	t.Parallel()
	var ids []string
	for _, c := range claims {
		if slices.Contains(ids, c.id) {
			t.Errorf("row id %q names two rows", c.id)
		}
		ids = append(ids, c.id)
	}
	doc, err := os.ReadFile("../../docs/EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var named []string
	for _, m := range claimID.FindAllStringSubmatch(string(doc), -1) {
		if !slices.Contains(named, m[1]) {
			named = append(named, m[1])
		}
	}
	slices.Sort(ids)
	slices.Sort(named)
	if !slices.Equal(ids, named) {
		t.Fatalf("claims rows %v\ndiffer from the row ids docs/EXPERIMENTS.md names %v", ids, named)
	}
}

// TestFiguresTableShape: the ids dapes-bench and BenchmarkFigure select by
// are unique, and every panel of every figure renders one column per series
// after the range and one row per range (Table I: one row per scenario).
func TestFiguresTableShape(t *testing.T) {
	t.Parallel()
	s := tinyScale() // shape only: nothing has to finish downloading
	s.NumFiles, s.PacketsPerFile = 1, 2
	s.MobileDown, s.PureForwarders, s.Intermediates = 2, 1, 1
	s.Horizon = time.Minute
	s.Ranges = []float64{60, 100}
	seen := map[string]bool{}
	for _, f := range Figures {
		for _, id := range f.IDs() {
			if seen[strings.ToLower(id)] {
				t.Errorf("id %q names two entries of Figures", id)
			}
			seen[strings.ToLower(id)] = true
		}
		res, err := f.Run(s)
		if err != nil {
			t.Fatalf("figure %v: %v", f.IDs(), err)
		}
		for i, p := range f.Panels {
			tbl := res.Table(i)
			wantCols, wantRows := 1+len(f.Series), len(s.Ranges)
			if f.Series == nil {
				wantCols, wantRows = len(tbl.Header), len(res.Scenarios)
			}
			if tbl.Title != p.Title || len(tbl.Header) != wantCols || len(tbl.Rows) != wantRows {
				t.Errorf("panel %s rendered %q with %d columns and %d rows, want %q with %d and %d",
					p.ID, tbl.Title, len(tbl.Header), len(tbl.Rows), p.Title, wantCols, wantRows)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("panel %s: row %v under header %v", p.ID, row, tbl.Header)
				}
			}
		}
	}
}
