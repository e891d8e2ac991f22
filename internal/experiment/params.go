// Package experiment reproduces the paper's evaluation (Section VI) and
// everything the repository runs beyond it. Workloads are named Scenario
// values in one sorted table, the catalog — the Fig. 7 simulation sweeps,
// the Fig. 8 outdoor feasibility runs, the Bithoc/Ekta baselines, design
// ablations, and post-paper scenarios (partition healing, convoy churn,
// urban density) — all executed by a Runner that fans independent trials
// across a worker pool. Every trial seeds its own sim.Kernel from
// TrialSeed(BaseSeed, trial), so serial and parallel runs produce
// byte-identical aggregates.
//
// The paper's figures are data: the Figures table names each figure's
// panels and series, Figure.Run sweeps them into a numeric FigureResult, and
// FigureResult.Table renders a panel as a Table whose rows mirror the series
// the paper plots; EmitRun/EmitTables render results as text, JSON, or CSV.
// docs/EXPERIMENTS.md is the one description of each scenario, in test-plan
// form.
package experiment

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"dapes/internal/core"
	"dapes/internal/fault"
)

// Scale selects the workload size. The paper's full scale (10 x 1 MB files,
// 1 KB packets, ten trials) is reproducible with Full, but the default
// Reduced scale keeps each figure's regeneration to seconds while preserving
// every qualitative relationship (see docs/EXPERIMENTS.md).
type Scale struct {
	// Trials per configuration; the paper reports the 90th percentile of
	// ten trials.
	Trials int
	// NumFiles and PacketsPerFile define the collection; PacketSize is the
	// network-layer payload (paper: 1 KB).
	NumFiles       int
	PacketsPerFile int
	PacketSize     int
	// Ranges are the WiFi ranges swept (paper: 20-100 m).
	Ranges []float64
	// Horizon bounds one trial's virtual time.
	Horizon time.Duration
	// Downloaders, Mobiles, PureForwarders, Intermediates set the node mix
	// (paper: 4 stationary + 20 mobile downloaders, 10 pure forwarders,
	// 10 DAPES-aware intermediates).
	Stationary     int
	MobileDown     int
	PureForwarders int
	Intermediates  int
	// LossRate is the per-reception loss probability (paper: 10%).
	LossRate float64
	// BaseSeed feeds per-trial deterministic seeds via TrialSeed. Any int64
	// is valid — the seed derivations (TrialSeed, plan.CellSeed) wrap
	// two's-complement near the boundary and sim.NewStream mixes all 64
	// bits, so Validate deliberately imposes no range on it.
	BaseSeed int64
	// Workers is the Runner's pool size — the one such setting: how many
	// trials run concurrently wherever a figure, scenario or plan cell fans
	// out through Runner; 0 or 1 is serial. Trials are seeded per index, so
	// the pool size never changes any metric.
	Workers int
	// AreaSide overrides the Fig.-7 simulation area edge in meters; 0 keeps
	// the paper's 300 m square.
	AreaSide float64
	// Shards is read by nothing: every trial runs on the one sequential
	// kernel. It stays because existing callers still set it.
	Shards int
	// Engine selects the implementations the trial's kernels and mediums
	// are built from; the zero value is production. Only equivalence tests
	// and benchmarks set it — to hold a retained reference (heap queue,
	// naive scan) against production — so no CLI flag or plan key reaches
	// it.
	Engine Engine
	// Faults is the declarative fault plan (crashes/restarts, bursty loss,
	// jammer windows) compiled per trial by internal/fault. nil — and any
	// plan that neither crashes, jams nor drops — is trace-neutral: the
	// trial runs the exact no-fault code path (docs/CONTRACTS.md). A world
	// that applies no fault plan refuses any other (Scenario.Refuses).
	Faults *fault.Plan
	// Design is the DAPES design every DAPES peer and relay of the trial
	// runs: the one way a core.Config reaches a trial. The presets carry
	// PaperDefaults; a world that runs a design of its own (the baselines,
	// the Fig.-8 outdoor runs, the ablations) fixes AxisDesign.
	Design core.Config
}

// ReducedScale is the default: 10 files x 20 packets (200 KB collection),
// 3 trials, 3 ranges. Roughly 1/50th of the paper's data volume.
func ReducedScale() Scale {
	return Scale{
		Trials:         3,
		NumFiles:       10,
		PacketsPerFile: 20,
		PacketSize:     1000,
		Ranges:         []float64{20, 60, 100},
		Horizon:        45 * time.Minute,
		Stationary:     4,
		MobileDown:     20,
		PureForwarders: 10,
		Intermediates:  10,
		LossRate:       0.10,
		BaseSeed:       1,
		Design:         PaperDefaults(),
	}
}

// QuickScale is the bench default: small enough for go test -bench runs.
func QuickScale() Scale {
	s := ReducedScale()
	s.Trials = 1
	s.NumFiles = 5
	s.PacketsPerFile = 10
	s.Ranges = []float64{40, 80}
	s.Horizon = 30 * time.Minute
	return s
}

// FullScale matches the paper's parameters. Regenerating a figure at this
// scale takes hours of CPU; use for final validation runs.
func FullScale() Scale {
	s := ReducedScale()
	s.Trials = 10
	s.NumFiles = 10
	s.PacketsPerFile = 1024 // 1 MB files at 1 KB packets
	s.Ranges = []float64{20, 40, 60, 80, 100}
	s.Horizon = 2 * time.Hour
	return s
}

// TotalPackets returns the collection's packet count at this scale.
func (s Scale) TotalPackets() int { return s.NumFiles * s.PacketsPerFile }

// Bounds on what one run allocates. A trial holds its whole collection
// in memory (full-scale Fig. 9f, the largest workload, is 153.6 MB), the
// node mix is counted before any scenario multiplier (urban-metro.toml
// has 2,003 nodes), and the paper reports 10 trials.
const (
	maxCollectionBytes = 1 << 30
	maxNodes           = 1 << 20
	MaxTrials          = 1000
)

// Validate rejects scales that cannot drive a meaningful run: a design
// checkDesign rejects (checked first), trial counts outside [1, MaxTrials],
// an empty range sweep, non-positive collection or packet sizes, a
// collection over maxCollectionBytes, loss probabilities outside [0, 1),
// and node mixes with nobody downloading or over maxNodes. Runner.Run and
// the plan harness call this before work starts so a bad knob fails with a
// field name instead of a mid-run panic or a silently empty sweep.
func (s Scale) Validate() error {
	if err := checkDesign(s.Design); err != nil {
		return err
	}
	switch {
	case s.Trials <= 0 || s.Trials > MaxTrials:
		return fmt.Errorf("experiment: Scale.Trials = %d, want 1 to %d trials", s.Trials, MaxTrials)
	case s.NumFiles <= 0:
		return fmt.Errorf("experiment: Scale.NumFiles = %d, must be positive", s.NumFiles)
	case s.PacketsPerFile <= 0:
		return fmt.Errorf("experiment: Scale.PacketsPerFile = %d, must be positive", s.PacketsPerFile)
	case s.PacketSize <= 0:
		return fmt.Errorf("experiment: Scale.PacketSize = %d, must be positive", s.PacketSize)
	case s.PacketSize > maxCollectionBytes/s.NumFiles/s.PacketsPerFile:
		return fmt.Errorf("experiment: collection NumFiles x PacketsPerFile x PacketSize = %d x %d x %d bytes exceeds %d",
			s.NumFiles, s.PacketsPerFile, s.PacketSize, maxCollectionBytes)
	case len(s.Ranges) == 0:
		return fmt.Errorf("experiment: Scale.Ranges is empty, need at least one WiFi range")
	case s.Horizon <= 0:
		return fmt.Errorf("experiment: Scale.Horizon = %v, must be positive", s.Horizon)
	case s.LossRate < 0 || s.LossRate >= 1:
		return fmt.Errorf("experiment: Scale.LossRate = %g, must be in [0, 1)", s.LossRate)
	case s.Stationary < 0 || s.MobileDown < 0 || s.PureForwarders < 0 || s.Intermediates < 0:
		return fmt.Errorf("experiment: negative node counts (%d stationary, %d mobile, %d forwarders, %d intermediates)",
			s.Stationary, s.MobileDown, s.PureForwarders, s.Intermediates)
	case s.Stationary+s.MobileDown == 0:
		return fmt.Errorf("experiment: no downloaders (Stationary + MobileDown = 0)")
	case max(s.Stationary, s.MobileDown, s.PureForwarders, s.Intermediates) > maxNodes ||
		1+s.Stationary+s.MobileDown+s.PureForwarders+s.Intermediates > maxNodes:
		return fmt.Errorf("experiment: node mix 1 producer + Stationary %d + MobileDown %d + PureForwarders %d + Intermediates %d exceeds %d nodes",
			s.Stationary, s.MobileDown, s.PureForwarders, s.Intermediates, maxNodes)
	case s.Workers < 0:
		return fmt.Errorf("experiment: Scale.Workers = %d, must be >= 0", s.Workers)
	case s.AreaSide < 0:
		return fmt.Errorf("experiment: Scale.AreaSide = %g, must be >= 0", s.AreaSide)
	}
	for i, r := range s.Ranges {
		if r <= 0 {
			return fmt.Errorf("experiment: Scale.Ranges[%d] = %g, must be positive", i, r)
		}
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// checkDesign rejects a forwarding probability outside (0, 1] and a
// negative bitmap count. core runs a zero probability at 20%, so a Scale
// that forgets its design would run another stack under its label: the
// DAPES worlds, which trials build without a Runner too, check it as well.
func checkDesign(d core.Config) error {
	switch {
	case !(d.ForwardProb > 0 && d.ForwardProb <= 1):
		return fmt.Errorf("experiment: Scale.Design.ForwardProb = %v, must be in (0, 1]", d.ForwardProb)
	case d.BitmapsBefore < 0:
		return fmt.Errorf("experiment: Scale.Design.BitmapsBefore = %d, must be >= 0 (0 is all)", d.BitmapsBefore)
	}
	return nil
}

// Table is one regenerated figure or table: a title, column header, and
// formatted rows in the same organization the paper plots.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table for terminal output.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// TrialResult captures one simulation trial's metrics.
type TrialResult struct {
	// AvgDownloadTime averages completion time over the downloading nodes;
	// nodes that missed the horizon contribute the horizon (right-censored).
	AvgDownloadTime time.Duration
	// Transmissions is the total frames put on the air by all nodes.
	Transmissions uint64
	// Completed counts downloaders that finished within the horizon.
	Completed int
	// Downloaders is the number of downloading nodes.
	Downloaders int
	// ForwardAccuracy is forwarded-Interests-answered / forwarded (DAPES).
	ForwardAccuracy float64
	// MemoryBytes is the aggregate protocol-state footprint (DAPES).
	MemoryBytes int
	// Crashed counts peers the trial's fault schedule crashed mid-run
	// (zero without a fault plan).
	Crashed int
	// Recovery is the mean time from restart to re-completion across
	// downloaders that finished after coming back from a crash — the chaos
	// scenarios' recovery-time statistic (zero when nothing recovered).
	Recovery time.Duration
}

// percentile90 returns the 90th percentile the paper reports across trials,
// by the nearest-rank definition: the smallest value with at least 90% of
// the trials at or below it, i.e. rank ceil(0.9 n) — the ninth-smallest of
// ten trials, the maximum for n <= 9.
func percentile90(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return sorted[(len(sorted)*9+9)/10-1]
}

// aggregate folds per-trial results into the paper's reported statistics.
func aggregate(trials []TrialResult) (downloadTime time.Duration, transmissions float64) {
	times := make([]float64, len(trials))
	txs := make([]float64, len(trials))
	for i, tr := range trials {
		times[i] = tr.AvgDownloadTime.Seconds()
		txs[i] = float64(tr.Transmissions)
	}
	return time.Duration(percentile90(times) * float64(time.Second)), percentile90(txs)
}

func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds())
}

func fmtCount(v float64) string {
	return fmt.Sprintf("%.0f", v)
}
