package experiment

import (
	"dapes/internal/core"
	"dapes/internal/phy"
)

// This file is the scenario catalog: every workload the repository can run
// is one entry of the table below. docs/EXPERIMENTS.md describes each entry
// in test-plan form; TestCatalogMatchesExperimentsDoc holds the two to the
// same set of names. TestEveryAxisMovesItsWorld holds each entry's Fixed to
// what its world reads.

// outdoor is what the Fig.-8 outdoor worlds set for themselves
// (newOutdoorWorld builds its medium from it): the MacBooks' ~50 m range at
// 5% loss, their own peers, and their own positions, so no area, and no
// fault plan.
var outdoor = Fixed{
	Axes:  []Axis{AxisRange, AxisLoss, AxisNodes, AxisArea, AxisFaults},
	Radio: phy.Config{Range: 50, LossRate: 0.05},
}

// merging is what partitioned-merge sets for itself: its clusters sit and
// walk in units of the radio range, so every range runs the same trial, and
// it runs at 60 m; it places its peers itself, so no area; it applies no
// fault plan.
var merging = Fixed{Axes: []Axis{AxisRange, AxisArea, AxisFaults}, Radio: phy.Config{Range: 60}}

// feasibilityTrial adapts a Fig.-8 outdoor run (which reports a Table-I
// ScenarioResult for the whole world) to the catalog's per-trial shape.
// The Fig.-8 worlds fix their own radio range (outdoor), so the runner's
// wifiRange is ignored.
func feasibilityTrial(run func(Scale, int64) (ScenarioResult, error)) TrialFunc {
	return func(s Scale, _ float64, trial int) (TrialResult, error) {
		r, err := run(s, TrialSeed(s.BaseSeed, trial))
		if err != nil {
			return TrialResult{}, err
		}
		completed := 0
		if r.Completed {
			completed = 1
		}
		return TrialResult{
			AvgDownloadTime: r.DownloadTime,
			Transmissions:   r.Transmissions,
			Completed:       completed,
			Downloaders:     1,
			MemoryBytes:     r.StateBytes,
		}, nil
	}
}

// withConfig is the Fig.-7 workload on the DAPES stack configured by cfg.
func withConfig(cfg core.Config) TrialFunc {
	return func(s Scale, wifiRange float64, trial int) (TrialResult, error) {
		return RunDAPESTrial(s, wifiRange, trial, cfg)
	}
}

// dapesVariant runs the Fig.-7 workload with one knob changed from the
// paper defaults.
func dapesVariant(mutate func(*core.Config)) TrialFunc {
	cfg := PaperDefaults()
	mutate(&cfg)
	return withConfig(cfg)
}

// atScale is the paper-default Fig.-7 workload on the scale that transform
// derives from the runner's.
func atScale(transform func(Scale) Scale) TrialFunc {
	return func(s Scale, wifiRange float64, trial int) (TrialResult, error) {
		return RunDAPESTrial(transform(s), wifiRange, trial, PaperDefaults())
	}
}

// catalog is every runnable scenario, in name order.
var catalog = []*Scenario{
	{
		Name:    "ablation-nopeba",
		Summary: "Fig.-7 DAPES with PEBA collision mitigation disabled",
		Run:     dapesVariant(func(c *core.Config) { c.UsePEBA = false }),
	},
	{
		Name:    "ablation-singlehop",
		Summary: "Fig.-7 DAPES with intermediate-node forwarding disabled",
		Run:     dapesVariant(func(c *core.Config) { c.Multihop = false }),
	},
	{
		Name:    "blackout-recovery",
		Summary: "Fig.-7 workload with a regional jammer blacking out the arena's center mid-trial",
		Run:     atScale(blackoutRecoveryScale),
	},
	{
		Name:    "convoy-churn",
		Summary: "Producer-led convoy on a 1.5 km road with rider dropouts and late joiners",
		Run:     convoyChurnTrial,
		// The convoy rides a road of its own, with no fault plan.
		Fixed: Fixed{Axes: []Axis{AxisArea, AxisFaults}},
	},
	{
		Name:    "fig7-bithoc",
		Summary: "Fig.-7 workload on the Bithoc baseline (DSDV + TCP-like swarming)",
		Run:     RunBithocTrial,
		Fixed:   Fixed{Axes: []Axis{AxisFaults}}, // the baselines apply no fault plan
	},
	{
		Name:    "fig7-dapes",
		Summary: "Paper's Fig.-7 random-walk workload, full DAPES stack, default config",
		Run:     paperTrial,
	},
	{
		Name:    "fig7-ekta",
		Summary: "Fig.-7 workload on the Ekta baseline (DSR + Pastry DHT)",
		Run:     RunEktaTrial,
		Fixed:   Fixed{Axes: []Axis{AxisFaults}},
	},
	{
		Name:    "fig8a-carrier",
		Summary: "Fig.-8a outdoor run: data carrier shuttles between three disconnected segments",
		Run:     feasibilityTrial(Scenario1Carrier),
		Fixed:   outdoor,
	},
	{
		Name:    "fig8b-repository",
		Summary: "Fig.-8b outdoor run: producer uploads to a stationary repo, peers fetch later",
		Run:     feasibilityTrial(Scenario2Repo),
		Fixed:   outdoor,
	},
	{
		Name:    "fig8c-mobile",
		Summary: "Fig.-8c outdoor run: four peers with transient multi-hop chains",
		Run:     feasibilityTrial(Scenario3Mobile),
		Fixed:   outdoor,
	},
	{
		Name:    "partitioned-merge",
		Summary: "Two clusters beyond radio reach merge a third into the horizon",
		Run:     partitionedMergeTrial,
		Fixed:   merging,
	},
	{
		Name:    "urban-grid",
		Summary: "Fig.-7 workload at 5x node count in a 1.5x-edge area (dense urban block)",
		Run:     atScale(urbanGridScale),
	},
	{
		Name:    "urban-grid-chaos",
		Summary: "urban-grid under churn: crashes with cold restarts over a bursty Gilbert-Elliott channel",
		Run:     atScale(urbanGridChaosScale),
		// Its own fault plan's Gilbert-Elliott channel replaces the i.i.d.
		// loss; a scale's fault plan replaces that plan.
		Fixed: Fixed{Bursty: true},
	},
	{
		Name:    "urban-grid-xl",
		Summary: "Fig.-7 workload at 25x node count in a 3x-edge area (metropolitan district)",
		Run:     atScale(urbanGridXLScale),
	},
	{
		Name:    "urban-metro",
		Summary: "urban-grid-xl's node mix at the paper's density, scaled to 50k+ nodes",
		Run:     atScale(urbanMetroScale),
	},
}
