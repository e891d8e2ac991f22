// Package dapes_bench regenerates every table and figure of the paper's
// evaluation (Section VI) as Go benchmarks: one BenchmarkFigure/<id> per
// figure. Each runs the corresponding experiment at bench scale (a reduced
// workload; see docs/EXPERIMENTS.md) and reports the headline metric the paper
// plots via b.ReportMetric, so `go test -bench=. -benchmem` prints the same
// series the paper does. `cmd/dapes-bench` renders the full tables.
package dapes_bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dapes/internal/experiment"
)

// benchScale keeps each figure's regeneration to a few seconds of wall
// clock while exercising the full Fig.-7 topology (45 nodes).
func benchScale() experiment.Scale {
	s := experiment.QuickScale()
	s.Ranges = []float64{60}
	return s
}

// BenchmarkFigure regenerates each entry of experiment.Figures at bench
// scale and reports the headline metric of each panel: the first series at
// the one range swept. A figure with an id of its own ("10") is one
// benchmark reporting every panel; otherwise each panel is its own
// (9g and 9h each run their shared sweep). Table I reports its third
// scenario on a two-file collection.
func BenchmarkFigure(b *testing.B) {
	for _, fig := range experiment.Figures {
		if fig.ID != "" {
			b.Run(fig.ID, func(b *testing.B) { benchFigure(b, fig, fig.Panels) })
			continue
		}
		for _, p := range fig.Panels {
			b.Run(p.ID, func(b *testing.B) { benchFigure(b, fig, []experiment.Panel{p}) })
		}
	}
}

func benchFigure(b *testing.B, fig experiment.Figure, panels []experiment.Panel) {
	s := benchScale()
	if fig.Series == nil {
		s.NumFiles = 2
	}
	for i := 0; i < b.N; i++ {
		res, err := fig.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		if fig.Series == nil {
			b.ReportMetric(res.Scenarios[2].DownloadTime.Seconds(), "s_scenario3")
			continue
		}
		for _, p := range panels {
			unit := "s_download"
			if p.Metric == experiment.Transmissions {
				unit = "transmissions"
			}
			if len(panels) > 1 { // say whose: the panels share the first series
				unit += "_" + strings.ToLower(res.Labels[0])
			}
			b.ReportMetric(p.Metric.Of(res.Cells[0][0]), unit)
		}
	}
}

// benchRunner drives the registry's fig7-dapes scenario through the trial
// runner at the given pool size; the two benchmarks below give the wall-clock
// speedup of parallel fan-out (the metrics themselves are identical by
// construction).
func benchRunner(b *testing.B, workers int) {
	b.Helper()
	s := benchScale()
	s.Trials = 4
	s.Workers = workers
	sc, err := experiment.Find("fig7-dapes")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiment.Runner{}.Run(sc, s, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DownloadTime90.Seconds(), "s_download_p90")
	}
}

// BenchmarkRunnerSerial is the 4-trial fig7-dapes run in one goroutine.
func BenchmarkRunnerSerial(b *testing.B) { benchRunner(b, 1) }

// BenchmarkRunnerParallel is the same run fanned across all cores.
func BenchmarkRunnerParallel(b *testing.B) { benchRunner(b, runtime.NumCPU()) }

// BenchmarkScenarioUrbanGrid runs the dense-grid scaling scenario at a
// reduced node mix (5x multiplication still applies); this is the number
// performance PRs should move.
func BenchmarkScenarioUrbanGrid(b *testing.B) {
	s := benchScale()
	s.Trials = 1
	s.MobileDown = 4
	s.PureForwarders = 2
	s.Intermediates = 2
	sc, err := experiment.Find("urban-grid")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiment.Runner{}.Run(sc, s, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DownloadTime90.Seconds(), "s_download_p90")
	}
}

// BenchmarkScenarioUrbanGridXL runs the 25x metropolitan scenario at a
// reduced base mix (~80 nodes after multiplication). The workload this
// exercises — many radios, few true neighbors per broadcast — is where the
// phy spatial-grid index pays off: at the phy level the grid broadcasts
// ~13x faster than the naive scan at N=1000 (BenchmarkBroadcastDense in
// internal/phy; measured numbers in docs/PERFORMANCE.md).
func BenchmarkScenarioUrbanGridXL(b *testing.B) {
	s := benchScale()
	s.Trials = 1
	s.NumFiles = 2
	s.PacketsPerFile = 5
	s.MobileDown = 1
	s.PureForwarders = 1
	s.Intermediates = 1
	s.Horizon = 10 * time.Minute
	sc, err := experiment.Find("urban-grid-xl")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := experiment.Runner{}.Run(sc, s, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DownloadTime90.Seconds(), "s_download_p90")
	}
}
