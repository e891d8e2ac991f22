package experiment

import (
	"slices"
	"strings"
	"testing"
	"time"

	"dapes/internal/core"
)

// TestPaperFig9aRandomStartBeatsSameStart pins Section VI-C's start-packet
// result on the selection code itself: with every peer breaking rarity ties
// by its own random permutation, first requests diversify across the swarm,
// and downloads finish sooner on fewer frames than when every peer starts at
// the same packet. Fig. 9a's setup (bitmaps-first, all bitmaps) at the
// reduced scale, range 60, local-neighbourhood RPF, means over 8 trials;
// measured when written: 33,461 vs 35,425 frames and 46.8 vs 48.1 s at seed
// 1 (33,740 vs 36,350; 36.9 vs 41.1 s at seed 2). Local-vs-encounter is
// deliberately not asserted: at this scale they differ by under 2% either
// way.
func TestPaperFig9aRandomStartBeatsSameStart(t *testing.T) {
	if testing.Short() {
		t.Skip("16 reduced-scale trials")
	}
	t.Parallel()
	s := ReducedScale()
	s.Trials = 8
	s.Workers = 4
	s.Ranges = []float64{60}
	res, err := Figure{Series: []Series{
		{Label: "random", Trial: withConfig(fig9aConfig(core.LocalNeighborhoodRPF, true))},
		{Label: "same", Trial: withConfig(fig9aConfig(core.LocalNeighborhoodRPF, false))},
	}}.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	randomFrames, randomTime := trialMeans(res.Cells[0][0])
	sameFrames, sameTime := trialMeans(res.Cells[0][1])
	t.Logf("random start: %.0f frames, %v; same-packet start: %.0f frames, %v", randomFrames, randomTime, sameFrames, sameTime)
	if randomFrames >= sameFrames {
		t.Errorf("random start put %.0f frames on the air, same-packet start %.0f: want fewer", randomFrames, sameFrames)
	}
	if randomTime >= sameTime {
		t.Errorf("random start took %v per download, same-packet start %v: want faster", randomTime, sameTime)
	}
}

// trialMeans returns a cell's frames and download time, each the mean over
// its trials.
func trialMeans(r RunResult) (frames float64, download time.Duration) {
	for _, tr := range r.Trials {
		frames += float64(tr.Transmissions) / float64(len(r.Trials))
		download += tr.AvgDownloadTime / time.Duration(len(r.Trials))
	}
	return frames, download
}

// figure returns the Figures entry with the given figure or panel id.
func figure(t *testing.T, id string) Figure {
	t.Helper()
	for _, f := range Figures {
		if slices.Contains(f.IDs(), id) {
			return f
		}
	}
	t.Fatalf("no figure %q in Figures", id)
	return Figure{}
}

// TestPaperFig10DAPESBeatsIPBaselines pins the paper's headline, Fig. 10a
// and 10b: DAPES finishes sooner and on fewer transmissions than Bithoc and
// than Ekta. Figure 10's own grid, at the quick scale, in every cell of
// ranges 40 and 80 m x seeds 1-3, as means over 4 trials per seed: one
// trial's frame count moves by a fifth with the trace, a DAPES trial at 40 m
// can land above a Bithoc one, and the means keep a margin of at least 15%.
// Measured when written, seed 1 at 40 m, the narrowest frame margin: 52.9 /
// 94.3 / 1,798 s and 15,438 / 18,218 / 238,248 frames.
func TestPaperFig10DAPESBeatsIPBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("72 quick-scale trials")
	}
	t.Parallel()
	s := QuickScale()
	s.Trials = 4
	for seed := int64(1); seed <= 3; seed++ {
		s.BaseSeed = seed
		res, err := figure(t, "10").Run(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res.Ranges {
			dapesFrames, dapesTime := trialMeans(res.Cells[i][0])
			for j, base := range res.Cells[i][1:] {
				name := res.Labels[1+j]
				baseFrames, baseTime := trialMeans(base)
				t.Logf("seed %d, %.0f m: DAPES %v on %.0f frames, %s %v on %.0f", seed, r,
					dapesTime, dapesFrames, name, baseTime, baseFrames)
				if dapesTime >= baseTime {
					t.Errorf("seed %d, %.0f m: DAPES took %v, %s %v: want faster", seed, r, dapesTime, name, baseTime)
				}
				if dapesFrames >= baseFrames {
					t.Errorf("seed %d, %.0f m: DAPES put %.0f frames on the air, %s %.0f: want fewer", seed, r, dapesFrames, name, baseFrames)
				}
			}
		}
	}
}

// TestPaperFig9gMultihopBeatsSingleHop pins Section VI-C's multi-hop result,
// Fig. 9g: with intermediate nodes forwarding at the paper's p = 20%,
// downloads finish sooner than over single-hop exchanges alone. Figure
// 9g/9h's own grid, at the quick scale, in every cell of ranges 40 and 80 m
// x seeds 1-3; measured when written: seed 1 35.5 vs 46.0 s and 4.3 vs
// 118.0 s, seed 2 51.2 vs 266.2 s and 5.4 vs 10.8 s. p = 40/60% and Fig.
// 9h's transmissions are logged, not asserted: single-hop put fewer frames
// on the air in 4 of the 10 cells of seeds 1-5.
func TestPaperFig9gMultihopBeatsSingleHop(t *testing.T) {
	if testing.Short() {
		t.Skip("24 quick-scale runs")
	}
	t.Parallel()
	s := QuickScale()
	for seed := int64(1); seed <= 3; seed++ {
		s.BaseSeed = seed
		res, err := figure(t, "9g").Run(s)
		if err != nil {
			t.Fatal(err)
		}
		single, p20 := slices.Index(res.Labels, "single-hop"), slices.Index(res.Labels, "p=20%")
		if single < 0 || p20 < 0 {
			t.Fatalf("figure 9g has series %v, want single-hop and p=20%%", res.Labels)
		}
		for i, r := range res.Ranges {
			for j, cell := range res.Cells[i] {
				t.Logf("seed %d, %.0f m, %s: %v on %.0f frames", seed, r, res.Labels[j], cell.DownloadTime90, cell.Transmissions90)
			}
			if multi, one := res.Cells[i][p20].DownloadTime90, res.Cells[i][single].DownloadTime90; multi >= one {
				t.Errorf("seed %d, %.0f m: multi-hop at p=20%% took %v, single-hop %v: want faster", seed, r, multi, one)
			}
		}
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

// seedMeans runs the figure answering to id at scale s once per base seed
// 1..seeds and returns the grid's labels and ranges with, per (range,
// series) cell, the metric's mean over the seeds. The ordering tests below
// assert an ordering of those means — a property of the distribution, which
// a change of random generator must keep — never one seed's digits.
func seedMeans(t *testing.T, s Scale, id string, m Metric, seeds int64) (labels []string, ranges []float64, mean [][]float64) {
	t.Helper()
	for seed := int64(1); seed <= seeds; seed++ {
		s.BaseSeed = seed
		res, err := figure(t, id).Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if mean == nil {
			labels, ranges = res.Labels, res.Ranges
			mean = make([][]float64, len(res.Cells))
			for i := range mean {
				mean[i] = make([]float64, len(res.Cells[i]))
			}
		}
		for i, cells := range res.Cells {
			for j, cell := range cells {
				mean[i][j] += m.Of(cell) / float64(seeds)
			}
		}
	}
	for i, r := range ranges {
		t.Logf("fig %s, %.0f m, mean over seeds 1-%d: %v = %.1f", id, r, seeds, labels, mean[i])
	}
	return labels, ranges, mean
}

// TestPaperFig9eFig9fLargerCollectionsTakeLonger pins the direction of Fig.
// 9e and 9f as series: at every range, each collection of a sweep — more
// files (9e), larger files (9f) — takes longer to download than the one
// before it, in the mean over seeds 1-5. Measured when written, column by
// column: 46.1 / 85.6 / 115.5 / 157.5 s and 4.1 / 11.1 / 17.5 / 24.4 s
// (9e, 40 and 80 m), 46.1 / 117.8 / 192.6 / 268.5 s and 4.1 / 17.6 / 34.3 /
// 52.4 s (9f).
func TestPaperFig9eFig9fLargerCollectionsTakeLonger(t *testing.T) {
	if testing.Short() {
		t.Skip("40 quick-scale runs per figure")
	}
	t.Parallel()
	for _, id := range []string{"9e", "9f"} {
		labels, ranges, mean := seedMeans(t, QuickScale(), id, DownloadTime, 5)
		for i, r := range ranges {
			for j := 1; j < len(labels); j++ {
				if mean[i][j] <= mean[i][j-1] {
					t.Errorf("fig %s, %.0f m: %s took %.1f s, %s %.1f s: want each larger collection slower",
						id, r, labels[j], mean[i][j], labels[j-1], mean[i][j-1])
				}
			}
		}
	}
}

// TestPaperFig9hTransmissionsGrowWithForwardProb pins Fig. 9h's multi-hop
// columns where the quick scale resolves them: at its densest range (80 m),
// forwarding more often puts no fewer frames on the air, p = 20% <= 40% <=
// 60% in the mean over seeds 1-30. Measured when written: 8,813 / 9,190 /
// 9,532 frames. Thirty seeds because the steps are 4% each and one trial's
// frame count moves 15% with its seed: over ten seeds neighbouring columns
// swap (8,983 / 8,908 / 9,348 over seeds 11-20). The sparse range is left
// out for the same reason at any affordable count — at 40 m a trial's frames
// follow its download time, 9,340-20,367 at p = 20% over seeds 1-10, and
// the thirty-seed means are 14,557 / 15,256 / 14,875. Single-hop against
// multi-hop is Fig. 9g's test.
func TestPaperFig9hTransmissionsGrowWithForwardProb(t *testing.T) {
	if testing.Short() {
		t.Skip("120 quick-scale runs")
	}
	t.Parallel()
	s := QuickScale()
	s.Ranges = s.Ranges[len(s.Ranges)-1:]
	labels, ranges, mean := seedMeans(t, s, "9h", Transmissions, 30)
	prev := -1
	for _, l := range []string{"p=20%", "p=40%", "p=60%"} {
		j := slices.Index(labels, l)
		if j < 0 {
			t.Fatalf("figure 9h has series %v, want %s", labels, l)
		}
		if prev >= 0 && mean[0][j] < mean[0][prev] {
			t.Errorf("fig 9h, %.0f m: %s put %.0f frames on the air, %s %.0f: want no fewer",
				ranges[0], l, mean[0][j], labels[prev], mean[0][prev])
		}
		prev = j
	}
}

// TestPaperTableIAllCompleteCarrierSlowest pins Table I's shape: each of the
// three real-world scenarios completes at every seed 1-5, and the data
// carrier of Fig. 8a — who has to walk the collection across — is the
// slowest of the three in the mean. Measured when written: 307.5 / 117.7 /
// 108.3 s.
func TestPaperTableIAllCompleteCarrierSlowest(t *testing.T) {
	if testing.Short() {
		t.Skip("15 quick-scale scenario runs")
	}
	t.Parallel()
	const seeds = 5
	s := QuickScale()
	var names []string
	var mean []float64
	for seed := int64(1); seed <= seeds; seed++ {
		s.BaseSeed = seed
		res, err := figure(t, "tableI").Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if mean == nil {
			mean = make([]float64, len(res.Scenarios))
		}
		names = names[:0]
		for i, row := range res.Scenarios {
			names = append(names, row.Name)
			mean[i] += row.DownloadTime.Seconds() / seeds
			if !row.Completed {
				t.Errorf("seed %d: %s did not complete", seed, row.Name)
			}
		}
	}
	t.Logf("mean download time over seeds 1-%d: %v = %.1f s", seeds, names, mean)
	if len(mean) != 3 {
		t.Fatalf("Table I has %d scenarios, want 3", len(mean))
	}
	for i := 1; i < len(mean); i++ {
		if mean[0] <= mean[i] {
			t.Errorf("%s took %.1f s, %s %.1f s: want the carrier slowest", names[0], mean[0], names[i], mean[i])
		}
	}
}
