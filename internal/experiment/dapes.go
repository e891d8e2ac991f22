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
// metrics.
func RunDAPESTrial(s Scale, wifiRange float64, trial int, opts DAPESOptions) (TrialResult, error) {
	w, err := buildDAPES(s, wifiRange, trial, opts)
	if err != nil {
		return TrialResult{}, err
	}
	return w.run(), nil
}

// buildDAPES builds and starts one trial's world on the engine the scale
// names.
func buildDAPES(s Scale, wifiRange float64, trial int, opts DAPESOptions) (*dapesWorld, error) {
	eng, pl := newFig7World(s, wifiRange, trial)
	installMediumFaults(eng.medium, s.Faults, TrialSeed(s.BaseSeed, trial))
	w := &dapesWorld{world: eng}
	if err := w.start(s, trial, opts, pl); err != nil {
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

// start attaches and starts every node of the placement and installs the
// crash schedule. Attach, start and scheduling order are part of the trace
// (radio IDs, kernel sequence numbers).
func (w *dapesWorld) start(s Scale, trial int, opts DAPESOptions, pl placement) error {
	res, err := buildCollection(s, s.BaseSeed+int64(trial))
	if err != nil {
		return err
	}
	w.horizon = s.Horizon
	w.collection = res.Manifest.Collection
	cfg := opts.coreConfig()
	peer := func(m geo.Mobility) *core.Peer {
		return core.NewPeer(w.Kernel, w.medium, m, nil, nil, cfg)
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
			w.pures = append(w.pures, multihop.NewPureForwarder(w.Kernel, w.medium, m,
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
// the medium's transmission counter.
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
