package experiment

import "dapes/internal/core"

// This file is the scenario catalog: every workload the repository can run
// registers here at init. docs/EXPERIMENTS.md documents each entry in
// test-plan form; keep the two in sync when adding a scenario.

// feasibilityTrial adapts a Fig.-8 outdoor run (which reports a Table-I
// ScenarioResult for the whole world) to the registry's per-trial shape.
// The Fig.-8 worlds fix their own 50 m radio range, so the runner's
// wifiRange is ignored, and apply no fault plan, so one is refused.
func feasibilityTrial(run func(Scale, int64) (ScenarioResult, error)) TrialFunc {
	return func(s Scale, _ float64, trial int) (TrialResult, error) {
		if err := refuseFaults(s); err != nil {
			return TrialResult{}, err
		}
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

var fig7Params = []Param{
	{Name: "range", Value: "20-100 m", Doc: "WiFi range swept by the figures"},
	{Name: "files/packets", Value: "Scale.NumFiles x Scale.PacketsPerFile", Doc: "collection size"},
	{Name: "nodes", Value: "4 stationary + 20 mobile downloaders, 10+10 forwarders", Doc: "Fig. 7 node mix (Scale fields)"},
	{Name: "loss", Value: "10%", Doc: "per-reception loss probability"},
}

func init() {
	Register(&Scenario{
		Name:      "fig7-dapes",
		Summary:   "Paper's Fig.-7 random-walk workload, full DAPES stack, default config",
		Optimizes: "download time and transmissions under the paper's default design point",
		Narrative: "45 nodes random-walk a 300 m square; one producer publishes the " +
			"collection and 24 downloaders fetch it with local-neighborhood RPF, " +
			"interleaved advertisements, PEBA, and 20% probabilistic forwarding.",
		Params: fig7Params,
		Run:    paperTrial,
	})
	Register(&Scenario{
		Name:      "fig7-bithoc",
		Summary:   "Fig.-7 workload on the Bithoc baseline (DSDV + TCP-like swarming)",
		Optimizes: "baseline download time/transmissions for the Fig.-10 comparison",
		Narrative: "Identical node motion to fig7-dapes, but peers run the Bithoc " +
			"stack: proactive DSDV routing, scoped HELLO flooding, TCP-like piece transfer.",
		Params: fig7Params,
		Run:    TrialFunc(RunBithocTrial),
	})
	Register(&Scenario{
		Name:      "fig7-ekta",
		Summary:   "Fig.-7 workload on the Ekta baseline (DSR + Pastry DHT)",
		Optimizes: "baseline download time/transmissions for the Fig.-10 comparison",
		Narrative: "Identical node motion to fig7-dapes, but peers run the Ekta " +
			"stack: reactive DSR routing, Pastry-style DHT object location, UDP-like transfer.",
		Params: fig7Params,
		Run:    TrialFunc(RunEktaTrial),
	})

	fig8Params := []Param{
		{Name: "range", Value: "50 m (fixed)", Doc: "outdoor MacBook WiFi range; runner range is ignored"},
		{Name: "files/packets", Value: "Scale.NumFiles x Scale.PacketsPerFile", Doc: "collection size"},
	}
	Register(&Scenario{
		Name:      "fig8a-carrier",
		Summary:   "Fig.-8a outdoor run: data carrier shuttles between three disconnected segments",
		Optimizes: "feasibility (completion, traffic and protocol state) under pure carry-and-forward",
		Narrative: "Producer A's collection reaches B and C only through carrier D, " +
			"who patrols three 150 m-apart network segments.",
		Params: fig8Params,
		Run:    feasibilityTrial(Scenario1Carrier),
	})
	Register(&Scenario{
		Name:      "fig8b-repository",
		Summary:   "Fig.-8b outdoor run: producer uploads to a stationary repo, peers fetch later",
		Optimizes: "feasibility of repository-mediated dissemination",
		Narrative: "Producer C visits a stationary repository and leaves; A and B " +
			"arrive later and retrieve the collection from the repo, sharing transmissions.",
		Params: fig8Params,
		Run:    feasibilityTrial(Scenario2Repo),
	})
	Register(&Scenario{
		Name:      "fig8c-mobile",
		Summary:   "Fig.-8c outdoor run: four peers with transient multi-hop chains",
		Optimizes: "feasibility under intermittent connectivity and transient chains",
		Narrative: "Four peers patrol the corners of a 150 m square, meeting pairwise " +
			"and all together periodically; multi-hop chains form and dissolve.",
		Params: fig8Params,
		Run:    feasibilityTrial(Scenario3Mobile),
	})

	Register(&Scenario{
		Name:      "ablation-singlehop",
		Summary:   "Fig.-7 DAPES with intermediate-node forwarding disabled",
		Optimizes: "isolates the contribution of Section-V multi-hop forwarding",
		Narrative: "Paper defaults except Multihop=false: downloads rely entirely on " +
			"direct producer/downloader encounters, the single-hop series of Fig. 9g/9h.",
		Params: fig7Params,
		Run:    dapesVariant(func(c *core.Config) { c.Multihop = false }),
	})
	Register(&Scenario{
		Name:      "ablation-nopeba",
		Summary:   "Fig.-7 DAPES with PEBA collision mitigation disabled",
		Optimizes: "isolates PEBA's transmission savings (Fig. 9b's no-PEBA series)",
		Narrative: "Paper defaults except UsePEBA=false: responders answer discovery " +
			"without priority backoff, inflating redundant transmissions.",
		Params: fig7Params,
		Run:    dapesVariant(func(c *core.Config) { c.UsePEBA = false }),
	})

	Register(&Scenario{
		Name:      "partitioned-merge",
		Summary:   "Two clusters beyond radio reach merge a third into the horizon",
		Optimizes: "advertisement exchange and RPF restart across a healing partition",
		Narrative: "Producer's cluster A and a disconnected cluster B (10x the radio " +
			"range apart) each idle in place; at Horizon/3 cluster B relocates next to A. " +
			"Cluster A peers finish early; cluster B peers can only start after the merge.",
		Params: []Param{
			{Name: "range", Value: "runner -range", Doc: "radio range; cluster gap scales with it"},
			{Name: "cluster size", Value: "max(3, (Stationary+MobileDown)/4) per cluster", Doc: "peers per cluster"},
			{Name: "merge time", Value: "Horizon/3", Doc: "when cluster B relocates"},
		},
		Run: partitionedMergeTrial,
	})
	Register(&Scenario{
		Name:      "convoy-churn",
		Summary:   "Producer-led convoy on a 1.5 km road with rider dropouts and late joiners",
		Optimizes: "forwarding and re-synchronization under continuous membership churn",
		Narrative: "A convoy rides a 1.5 km road at 5 m/s as a connected multi-hop " +
			"chain. Every third rider pulls 800 m off-road mid-route; every third joins " +
			"late from a side street and must catch up on missed advertisements.",
		Params: []Param{
			{Name: "road", Value: "1500 m at 5 m/s", Doc: "convoy route and speed"},
			{Name: "spacing", Value: "min(25 m, 0.45 x range)", Doc: "inter-vehicle gap; chain survives a single dropout hole"},
			{Name: "riders", Value: "max(3, (Stationary+MobileDown)/4) + 1", Doc: "downloading convoy members"},
		},
		Run: convoyChurnTrial,
	})
	Register(&Scenario{
		Name:      "urban-grid",
		Summary:   "Fig.-7 workload at 5x node count in a 1.5x-edge area (dense urban block)",
		Optimizes: "scaling: contention, PEBA, and forwarding at ~2.2x the paper's node density",
		Narrative: "The same random-walk workload as fig7-dapes with MobileDown, " +
			"PureForwarders, and Intermediates all multiplied by five in a 450 m square — " +
			"the density smoke test every performance PR should move.",
		Params: []Param{
			{Name: "nodes", Value: "5x Scale node mix (~205 nodes at ReducedScale)", Doc: "dense node count"},
			{Name: "area", Value: "450 m square (AreaSide=0 default)", Doc: "1.5x the Fig.-7 edge"},
		},
		Run: urbanGridTrial,
	})
	Register(&Scenario{
		Name:      "urban-grid-xl",
		Summary:   "Fig.-7 workload at 25x node count in a 3x-edge area (metropolitan district)",
		Optimizes: "scaling: the phy spatial-grid index at ~1000 nodes; quadratic media need not apply",
		Narrative: "urban-grid taken 5x further: MobileDown, PureForwarders, and " +
			"Intermediates multiplied by 25 in a 900 m square (~2.8x the paper's " +
			"density, ~1000 nodes at ReducedScale). Tractable because the medium " +
			"finds receivers through the geo.Grid spatial index; see docs/PERFORMANCE.md.",
		Params: []Param{
			{Name: "nodes", Value: "25x Scale node mix (~1005 nodes at ReducedScale)", Doc: "metropolitan node count"},
			{Name: "area", Value: "900 m square (AreaSide=0 default)", Doc: "3x the Fig.-7 edge"},
		},
		Run: urbanGridXLTrial,
	})
	Register(&Scenario{
		Name:      "urban-metro",
		Summary:   "urban-grid-xl's node mix at the paper's density, scaled to 50k+ nodes",
		Optimizes: "scaling: per-node trial cost at 50k+ nodes on the one sequential kernel (plans/urban-metro.toml)",
		Narrative: "The 25x node mix in a density-preserving area (edge grows with " +
			"sqrt(nodes), holding the paper's nodes-per-square-meter): the Fig.-7 " +
			"DAPES trial on a metropolitan population, run like every other trial " +
			"on the one sequential kernel, so its per-frame cost is the grid index's " +
			"and the timer wheel's at 50k radios.",
		Params: []Param{
			{Name: "nodes", Value: "25x Scale node mix", Doc: "metropolitan node count; plans/urban-metro.toml reaches 50k"},
			{Name: "area", Value: "300 m x sqrt(nodes/45) square (AreaSide=0 default)", Doc: "density-preserving edge"},
		},
		Run: urbanMetroTrial,
	})
	Register(&Scenario{
		Name:      "urban-grid-chaos",
		Summary:   "urban-grid under churn: crashes with cold restarts over a bursty Gilbert-Elliott channel",
		Optimizes: "robustness: completions under churn and restart-to-recompletion recovery time",
		Narrative: "The dense urban-grid mix with a seeded fault schedule: about a third " +
			"of the downloaders and intermediates crash in the trial's first half and " +
			"cold-restart (empty tables, subscriptions kept) a sixth of a horizon later, " +
			"while every receiver sees bursty two-state loss instead of i.i.d. coin " +
			"flips. The schedule is a pure function of the trial seed (internal/fault), " +
			"so runs replay byte-identically at any worker count. Reported " +
			"extras: crashed count and mean restart-to-recompletion time.",
		Params: []Param{
			{Name: "crashes", Value: "34% of downloaders+intermediates in [H/6, H/3)", Doc: "cold restart H/9-H/6 later"},
			{Name: "loss", Value: "Gilbert-Elliott 5%/40%, transitions 0.10/0.30", Doc: "bursty per-receiver channel"},
			{Name: "faults", Value: "Scale.Faults overrides the default plan", Doc: "[faults] section or dapes-sim -faults"},
		},
		Run: urbanGridChaosTrial,
	})
	Register(&Scenario{
		Name:      "blackout-recovery",
		Summary:   "Fig.-7 workload with a regional jammer blacking out the arena's center mid-trial",
		Optimizes: "robustness: re-synchronization after a coverage hole opens and closes",
		Narrative: "The paper's workload with a jammer disk covering the middle third " +
			"of the arena from H/8 to 3H/8: receptions completing inside the disk are " +
			"dropped, so downloads in progress stall and must resume — via mobility, " +
			"multi-hop detours, or patience — once the blackout lifts. The jammer is a " +
			"pure position/time predicate (no RNG), so it is trace-neutral outside its " +
			"window and identical across worker counts.",
		Params: []Param{
			{Name: "jam disk", Value: "radius 0.35 x AreaSide at the arena center", Doc: "receiver-side blackout"},
			{Name: "window", Value: "[H/8, 3H/8)", Doc: "a quarter of the horizon, starting an eighth in"},
			{Name: "faults", Value: "Scale.Faults overrides the default plan", Doc: "[faults] section or dapes-sim -faults"},
		},
		Run: blackoutRecoveryTrial,
	})
}
