package experiment

import (
	"time"

	"dapes/internal/core"
	"dapes/internal/fault"
	"dapes/internal/geo"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
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
// metrics: on the sequential kernel by default, on Scale.Shards stripes under
// the conservative lookahead when the scale asks for them (see runDAPESTrial
// for that path's equivalence and relaxation contract).
func RunDAPESTrial(s Scale, wifiRange float64, trial int, opts DAPESOptions) (TrialResult, error) {
	return runDAPESTrial(s, wifiRange, trial, opts, 0)
}

// runDAPESTrial executes one Fig.-7 trial. With Scale.Shards > 0 it runs on
// the space-partitioned kernel: the area splits into that many vertical
// stripes balanced on the t=0 node-position CDF, each with its own sim.Kernel
// and phy.Medium, advancing in windows of `lookahead` — batched past provably
// quiet boundaries — and exchanging cross-boundary broadcasts at window
// barriers. A non-positive lookahead selects the conservative bound, under
// which no in-flight frame can span a window edge; zero shards is the one
// sequential kernel, which has no windows. With one shard the run is
// byte-identical to the sequential kernel (same seeds, same radio IDs, same
// event schedule), which is what the sharded golden gate checks for every
// registered scenario.
//
// With more than one shard the global-trace contract is relaxed, deliberately
// and deterministically (random draws are not part of it: a node's streams
// derive from the trial seed and its radio ID, the same on any stripe):
//
//   - cross-stripe broadcasts register at the next window barrier, so a
//     reception completing earlier in the same window cannot collide with
//     them, and a relaxed (larger) lookahead delays cross-stripe delivery
//     by up to one window;
//   - PEBA overhearing-based suppression sees only same-stripe traffic
//     between barriers.
//
// Aggregate statistics stay in family with the sequential run (the
// acceptance bar for the scenarios that default to sharding), and the whole
// schedule remains a pure function of (BaseSeed, trial, shards, lookahead):
// serial and parallel window execution are byte-identical, which
// TestShardedTrialSerialMatchesParallel gates.
func runDAPESTrial(s Scale, wifiRange float64, trial int, opts DAPESOptions, lookahead time.Duration) (TrialResult, error) {
	w, err := buildDAPES(s, wifiRange, trial, opts, lookahead)
	if err != nil {
		return TrialResult{}, err
	}
	defer w.Close()
	return w.run(), nil
}

// buildDAPES builds and starts one trial's world on the engine and stripe
// count the scale names; the caller closes it.
func buildDAPES(s Scale, wifiRange float64, trial int, opts DAPESOptions, lookahead time.Duration) (*dapesWorld, error) {
	eng, pl := newFig7World(s, wifiRange, trial, s.Shards, lookahead)
	for _, m := range eng.mediums {
		installMediumFaults(m, s.Faults, TrialSeed(s.BaseSeed, trial))
	}
	w := &dapesWorld{world: eng}
	if err := w.start(s, trial, opts, pl); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// dapesWorld is one Fig.-7 DAPES trial, built and started but not yet run:
// every node attached and beaconing, the fault schedule installed.
type dapesWorld struct {
	*world

	horizon       time.Duration
	collection    ndn.Name
	downloaders   []*core.Peer
	intermediates []*core.Peer
	pures         []*multihop.PureForwarder
	sched         fault.Schedule
	faultsUntil   time.Duration
}

// start attaches and starts every node of the placement on its home stripe
// and installs the crash schedule. Attach, start and scheduling order are
// part of the trace (radio IDs, kernel sequence numbers).
func (w *dapesWorld) start(s Scale, trial int, opts DAPESOptions, pl placement) error {
	res, err := buildCollection(s, s.BaseSeed+int64(trial))
	if err != nil {
		return err
	}
	w.horizon = s.Horizon
	w.collection = res.Manifest.Collection
	cfg := opts.coreConfig()
	peer := func(m geo.Mobility) *core.Peer {
		k, medium := w.site(m)
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
			k, medium := w.site(m)
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
	w.RunUntil(w.horizon, allDone(w.Now, w.faultsUntil, len(w.downloaders), collectionDone(w.downloaders, w.collection)))
	return w.collect()
}

// collect folds the world, as it stands, into a TrialResult.
func (w *dapesWorld) collect() TrialResult {
	result := collectDAPES(w.Stats().Transmissions, w.collection, w.downloaders, w.intermediates, w.pures, w.horizon)
	chaosStats(&result, w.sched, w.downloaders, w.collection)
	return result
}

// collectDAPES folds one finished trial's peers into a TrialResult; tx is
// the medium's (or sharded medium's summed) transmission counter.
func collectDAPES(tx uint64, collection ndn.Name, downloaders, intermediates []*core.Peer, pures []*multihop.PureForwarder, horizon time.Duration) TrialResult {
	var total time.Duration
	completed := 0
	memory := 0
	var relay multihop.Counters
	for _, p := range downloaders {
		done, at := p.Done(collection)
		if done {
			completed++
		}
		total += censor(done, at, horizon)
		memory += p.MemoryFootprint()
		relay.Add(p.Stats().Counters)
	}
	for _, p := range intermediates {
		memory += p.MemoryFootprint()
		relay.Add(p.Stats().Counters)
	}
	for _, f := range pures {
		relay.Add(f.Stats().Counters)
	}
	return TrialResult{
		AvgDownloadTime: total / time.Duration(len(downloaders)),
		Transmissions:   tx,
		Completed:       completed,
		Downloaders:     len(downloaders),
		ForwardAccuracy: relay.Accuracy(),
		MemoryBytes:     memory,
	}
}
