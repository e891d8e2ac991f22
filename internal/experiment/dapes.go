package experiment

import (
	"time"

	"dapes/internal/core"
	"dapes/internal/fault"
	"dapes/internal/geo"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// DAPESOptions selects the design variant under test; the zero value is the
// paper's default configuration (local-neighborhood RPF, random start,
// interleaved advertisements, PEBA on, multi-hop at 20%).
type DAPESOptions struct {
	Strategy      core.StrategyKind
	RandomStart   bool
	AdvertMode    core.AdvertMode
	BitmapsBefore int
	UsePEBA       bool
	Multihop      bool
	ForwardProb   float64
}

// PaperDefaults returns the configuration Section VI-B describes.
func PaperDefaults() DAPESOptions {
	return DAPESOptions{
		Strategy:    core.LocalNeighborhoodRPF,
		RandomStart: true,
		AdvertMode:  core.Interleaved,
		UsePEBA:     true,
		Multihop:    true,
		ForwardProb: 0.2,
	}
}

func (o DAPESOptions) coreConfig() core.Config {
	return core.Config{
		AdvertMode:    o.AdvertMode,
		BitmapsBefore: o.BitmapsBefore,
		Strategy:      o.Strategy,
		RandomStart:   o.RandomStart,
		UsePEBA:       o.UsePEBA,
		Multihop:      o.Multihop,
		ForwardProb:   o.ForwardProb,
	}
}

// RunDAPESTrial executes one Fig.-7 trial of the DAPES stack and returns its
// metrics. When Scale.Shards (or the SetDefaultShards package default)
// selects a shard count, the trial runs on the space-partitioned parallel
// kernel instead of the sequential reference; see RunShardedDAPESTrial for
// the equivalence and relaxation contract.
func RunDAPESTrial(s Scale, wifiRange float64, trial int, opts DAPESOptions) (TrialResult, error) {
	if n := resolveShards(s); n > 0 {
		return RunShardedDAPESTrial(s, wifiRange, trial, opts, n, 0)
	}
	return runSequentialDAPESTrial(s, wifiRange, trial, opts)
}

// runSequentialDAPESTrial is the single-kernel reference implementation.
func runSequentialDAPESTrial(s Scale, wifiRange float64, trial int, opts DAPESOptions) (TrialResult, error) {
	w, err := buildSequentialDAPES(s, wifiRange, trial, opts)
	if err != nil {
		return TrialResult{}, err
	}
	return w.run(), nil
}

func buildSequentialDAPES(s Scale, wifiRange float64, trial int, opts DAPESOptions) (*dapesWorld, error) {
	topo := buildTopology(s, wifiRange, trial)
	installMediumFaults(topo.medium, s.Faults, TrialSeed(s.BaseSeed, trial))
	w := &dapesWorld{kernel: topo.kernel, medium: topo.medium}
	site := func(geo.Mobility) (*sim.Kernel, *phy.Medium) { return topo.kernel, topo.medium }
	return w, w.start(s, trial, opts, topo.placement, site)
}

// trialKernel is what a built world needs of its engine; the sequential and
// the sharded kernel both provide it.
type trialKernel interface {
	Now() time.Duration
	RunUntil(horizon time.Duration, cond func() bool) bool
}

// dapesWorld is one Fig.-7 DAPES trial, built and started but not yet run:
// every node attached and beaconing, the fault schedule installed. The
// sequential and the sharded path differ only in the engine underneath and
// in which kernel and medium host each node.
type dapesWorld struct {
	kernel trialKernel
	medium interface{ Stats() phy.Stats } // the one medium, or the sharded sum

	horizon       time.Duration
	collection    ndn.Name
	downloaders   []*core.Peer
	intermediates []*core.Peer
	pures         []*multihop.PureForwarder
	sched         fault.Schedule
	faultsUntil   time.Duration
}

// start attaches and starts every node of the placement — site names the
// kernel and medium hosting a node with the given mobility — and installs
// the crash schedule. Attach, start and scheduling order are part of the
// trace (radio IDs, kernel sequence numbers), so both paths share this one
// copy of it.
func (w *dapesWorld) start(s Scale, trial int, opts DAPESOptions, pl placement, site func(geo.Mobility) (*sim.Kernel, *phy.Medium)) error {
	res, err := buildCollection(s, s.BaseSeed+int64(trial))
	if err != nil {
		return err
	}
	w.horizon = s.Horizon
	w.collection = res.Manifest.Collection
	cfg := opts.coreConfig()
	peer := func(m geo.Mobility) *core.Peer {
		k, medium := site(m)
		return core.NewPeer(k, medium, m, nil, nil, cfg)
	}

	producer := peer(pl.producerMobility)
	if err := producer.Publish(res); err != nil {
		return err
	}
	addDownloader := func(m geo.Mobility) {
		p := peer(m)
		p.Subscribe(w.collection)
		w.downloaders = append(w.downloaders, p)
	}
	for _, pos := range pl.stationaryPos {
		addDownloader(geo.Stationary{At: pos})
	}
	for _, m := range pl.downloaderMobility {
		addDownloader(m)
	}
	for i, m := range pl.forwarderMobility {
		if i < s.PureForwarders {
			k, medium := site(m)
			w.pures = append(w.pures, multihop.NewPureForwarder(k, medium, m,
				multihop.Config{ForwardProb: opts.ForwardProb}))
			continue
		}
		// DAPES-aware intermediates: understand the semantics, forward based
		// on overheard knowledge, but do not download.
		w.intermediates = append(w.intermediates, peer(m))
	}

	producer.Start()
	for _, p := range w.downloaders {
		p.Start()
	}
	if opts.Multihop {
		for _, f := range w.pures {
			f.Start()
		}
		for _, p := range w.intermediates {
			p.Start()
		}
	}
	w.sched, w.faultsUntil = scheduleCrashes(s.Faults, TrialSeed(s.BaseSeed, trial), w.downloaders, w.intermediates)
	return nil
}

// run drives the world until every downloader holds the collection (or the
// horizon passes) and returns the trial's metrics.
func (w *dapesWorld) run() TrialResult {
	w.kernel.RunUntil(w.horizon, allDone(w.kernel.Now, w.faultsUntil, len(w.downloaders), collectionDone(w.downloaders, w.collection)))
	return w.collect()
}

// collect folds the world, as it stands, into a TrialResult.
func (w *dapesWorld) collect() TrialResult {
	result := collectDAPES(w.medium.Stats().Transmissions, w.collection, w.downloaders, w.intermediates, w.pures, w.horizon)
	chaosStats(&result, w.sched, w.downloaders, w.collection)
	return result
}

// collectDAPES folds one finished trial's peers into a TrialResult; tx is
// the medium's (or sharded medium's summed) transmission counter.
func collectDAPES(tx uint64, collection ndn.Name, downloaders, intermediates []*core.Peer, pures []*multihop.PureForwarder, horizon time.Duration) TrialResult {
	var total time.Duration
	completed := 0
	memory := 0
	var fwd, answered uint64
	for _, p := range downloaders {
		done, at := p.Done(collection)
		if done {
			completed++
		}
		total += censor(done, at, horizon)
		memory += p.MemoryFootprint()
		fwd += p.Stats().InterestsForwarded
		answered += p.Stats().ForwardedAnswered
	}
	for _, p := range intermediates {
		memory += p.MemoryFootprint()
		fwd += p.Stats().InterestsForwarded
		answered += p.Stats().ForwardedAnswered
	}
	for _, f := range pures {
		fwd += f.Stats().InterestsForwarded
		answered += f.Stats().ForwardedAnswered
	}
	acc := 0.0
	if fwd > 0 {
		acc = float64(answered) / float64(fwd)
	}
	return TrialResult{
		AvgDownloadTime: total / time.Duration(len(downloaders)),
		Transmissions:   tx,
		Completed:       completed,
		Downloaders:     len(downloaders),
		ForwardAccuracy: acc,
		MemoryBytes:     memory,
	}
}

// RunDAPES runs Trials trials through the worker pool (s.Workers wide) and
// aggregates the paper's statistics. Results are identical at any pool size.
func RunDAPES(s Scale, wifiRange float64, opts DAPESOptions) (time.Duration, float64, []TrialResult, error) {
	sc := &Scenario{
		Name: "dapes",
		Run: func(s Scale, wifiRange float64, trial int) (TrialResult, error) {
			return RunDAPESTrial(s, wifiRange, trial, opts)
		},
	}
	res, err := Runner{}.Run(sc, s, wifiRange) // pool size comes from s.Workers
	if err != nil {
		return 0, 0, nil, err
	}
	return res.DownloadTime90, res.Transmissions90, res.Trials, nil
}
