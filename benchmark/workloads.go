package main

import (
	"math"
	"time"

	"dapes/internal/experiment"
)

// cell is one call of a registered scenario's TrialFunc: the unit the
// harness times, repeats and checks.
type cell struct {
	scenario  string
	scale     experiment.Scale
	wifiRange float64
	trial     int
	// nodes and downloaders are what the scale must build; downloaders is
	// checked against TrialResult.Downloaders, nodes scales the per-node
	// metrics (a TrialResult does not report it).
	nodes       int
	downloaders int
}

// workload is a fixed list of cells, a function of the seed only.
type workload struct {
	name string
	// requireAll fails a cell in which a downloader misses the horizon. The
	// metro worlds run a 10 s horizon in which nobody can finish.
	requireAll bool
	cells      func(seed int64) []cell
}

// The sweeps run the paper's Fig. 7 world at ReducedScale. A single 45-node
// trial's cost moves 20% with its seed (an epidemic's onset is one random
// encounter), so a sweep needs tens of trials before its sum moves less than
// a third of a bound; the trial counts below are what fits a 12 s repetition
// on a 2-core machine.
const (
	fig7Trials   = 9
	bithocTrials = 6
	metroTrials  = 2
)

var sweepRanges = []float64{20, 60, 100}

func sweep(scenario string, trials int) func(seed int64) []cell {
	return func(seed int64) []cell {
		var out []cell
		for _, r := range sweepRanges {
			for t := 0; t < trials; t++ {
				s := experiment.ReducedScale()
				s.BaseSeed = seed
				out = append(out, cell{
					scenario: scenario, scale: s, wifiRange: r, trial: t,
					nodes:       1 + s.Stationary + s.MobileDown + s.PureForwarders + s.Intermediates,
					downloaders: s.Stationary + s.MobileDown,
				})
			}
		}
		return out
	}
}

// metroScale is the [scale] table of plans/urban-metro.toml.
func metroScale(seed int64) experiment.Scale {
	s := experiment.ReducedScale()
	s.NumFiles, s.PacketsPerFile, s.PacketSize = 1, 4, 200
	s.Horizon = 10 * time.Second
	s.Stationary, s.MobileDown, s.PureForwarders, s.Intermediates = 2, 8, 1912, 80
	s.BaseSeed = seed
	return s
}

// The urban-metro scenario multiplies the mobile mix by this.
const metroMix = 25

func metroNodes(s experiment.Scale) (nodes, downloaders int) {
	return 1 + s.Stationary + metroMix*(s.MobileDown+s.PureForwarders+s.Intermediates),
		s.Stationary + metroMix*s.MobileDown
}

func metroSharded(seed int64) []cell {
	var out []cell
	for t := 0; t < metroTrials; t++ {
		s := metroScale(seed)
		s.Shards = 4
		nodes, down := metroNodes(s)
		out = append(out, cell{scenario: "urban-metro", scale: s, wifiRange: 60, trial: t, nodes: nodes, downloaders: down})
	}
	return out
}

// metroSeq builds urban-metro's world — same mix, same density-preserving
// area — through fig7-dapes, which runs it on the one sequential kernel.
func metroSeq(seed int64) []cell {
	var out []cell
	for t := 0; t < metroTrials; t++ {
		s := metroScale(seed)
		nodes, down := metroNodes(s)
		s.MobileDown *= metroMix
		s.PureForwarders *= metroMix
		s.Intermediates *= metroMix
		s.AreaSide = 300 * math.Sqrt(float64(nodes)/45)
		out = append(out, cell{scenario: "fig7-dapes", scale: s, wifiRange: 60, trial: t, nodes: nodes, downloaders: down})
	}
	return out
}

// workloads is the benchmark's workload list; BENCHMARK.json carries the
// same names with the reason each was chosen.
var workloads = []workload{
	{name: "fig7-sweep", requireAll: true, cells: sweep("fig7-dapes", fig7Trials)},
	{name: "bithoc-sweep", requireAll: true, cells: sweep("fig7-bithoc", bithocTrials)},
	{name: "metro-sharded", cells: metroSharded},
	{name: "metro-seq", cells: metroSeq},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
