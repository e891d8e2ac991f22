package experiment

import (
	"time"

	"dapes/internal/core"
	"dapes/internal/fault"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
)

// PaperDefaults returns the configuration Section VI-B describes:
// local-neighborhood RPF with random start, interleaved advertisements, PEBA
// on, and multi-hop forwarding at 20%.
func PaperDefaults() core.Config {
	return core.Config{
		Strategy:    core.LocalNeighborhoodRPF,
		RandomStart: true,
		AdvertMode:  core.Interleaved,
		UsePEBA:     true,
		Multihop:    true,
		ForwardProb: 0.2,
	}
}

// RunDAPESTrial executes one Fig.-7 trial of the DAPES stack under the
// scale's design and returns its metrics: the fig7-dapes scenario.
func RunDAPESTrial(s Scale, wifiRange float64, trial int) (TrialResult, error) {
	w, err := buildDAPES(s, wifiRange, trial)
	if err != nil {
		return TrialResult{}, err
	}
	return w.run(), nil
}

// dapesWorld is one DAPES trial, built and started but not yet run: every
// node attached and beaconing, the fault schedule installed. Every DAPES
// scenario builds one.
type dapesWorld struct {
	*world

	cfg           core.Config
	collection    ndn.Name
	downloaders   []*core.Peer
	intermediates []*core.Peer
	pures         []multihop.PureForwarder
	sched         fault.Schedule
	faultsUntil   time.Duration
}

// peer attaches a DAPES peer on m. Attach, start and scheduling order are
// part of the trace (radio IDs, kernel sequence numbers), so each builder
// keeps its own.
func (w *dapesWorld) peer(m geo.Mobility) *core.Peer {
	return core.NewPeer(w.Kernel, w.medium, m, nil, nil, w.cfg)
}

// publish attaches the producer on m holding res, whose collection the
// world's downloaders then subscribe to.
func (w *dapesWorld) publish(m geo.Mobility, res *metadata.BuildResult) (*core.Peer, error) {
	w.collection = res.Manifest.Collection
	p := w.peer(m)
	return p, p.Publish(res)
}

// download attaches a downloader of the world's collection on m.
func (w *dapesWorld) download(m geo.Mobility) {
	p := w.peer(m)
	p.Subscribe(w.collection)
	w.downloaders = append(w.downloaders, p)
}

// startDownloaders starts every downloader, in attach order.
func (w *dapesWorld) startDownloaders() {
	for _, p := range w.downloaders {
		p.Start()
	}
}

// buildDAPES builds and starts one Fig.-7 trial's world under the scale's
// design on the engine the scale names, and installs its fault plan.
func buildDAPES(s Scale, wifiRange float64, trial int) (*dapesWorld, error) {
	if err := checkDesign(s.Design); err != nil {
		return nil, err
	}
	eng, pl := newFig7World(s, wifiRange, trial)
	installMediumFaults(eng.medium, s.Faults, TrialSeed(s.BaseSeed, trial))
	w := &dapesWorld{world: eng, cfg: s.Design}
	res, err := buildCollection(s, s.BaseSeed+int64(trial))
	if err != nil {
		return nil, err
	}
	producer, err := w.publish(pl.producerMobility, res)
	if err != nil {
		return nil, err
	}
	for _, pos := range pl.stationaryPos {
		w.download(geo.Stationary{At: pos})
	}
	for _, m := range pl.downloaderMobility {
		w.download(m)
	}
	w.pures = multihop.NewPureForwarders(w.Kernel, w.medium, pl.forwarderMobility[:s.PureForwarders],
		multihop.Config{ForwardProb: s.Design.ForwardProb})
	// DAPES-aware intermediates: understand the semantics, forward based on
	// overheard knowledge, but do not download.
	for _, m := range pl.forwarderMobility[s.PureForwarders:] {
		w.intermediates = append(w.intermediates, w.peer(m))
	}

	producer.Start()
	w.startDownloaders()
	if s.Design.Multihop {
		for i := range w.pures {
			w.pures[i].Start()
		}
		for _, p := range w.intermediates {
			p.Start()
		}
	}
	w.sched, w.faultsUntil = scheduleCrashes(s.Faults, TrialSeed(s.BaseSeed, trial), w.downloaders, w.intermediates)
	return w, nil
}

// doneAt reports whether downloader i holds the collection, and since when.
func (w *dapesWorld) doneAt(i int) (bool, time.Duration) {
	return w.downloaders[i].Done(w.collection)
}

// run drives the world until every downloader holds the collection (or the
// horizon passes) and returns the trial's metrics.
func (w *dapesWorld) run() TrialResult {
	w.runUntilDone(w.faultsUntil, len(w.downloaders), w.doneAt)
	return w.collect()
}

// collect folds the world, as it stands, into a TrialResult: the completion
// fold, plus the protocol state of the downloaders and intermediates, the
// forwarding accuracy of every relay, and the fault schedule's outcome.
func (w *dapesWorld) collect() TrialResult {
	res, _ := w.completion(len(w.downloaders), w.doneAt)
	var relay multihop.Counters
	for _, ps := range [][]*core.Peer{w.downloaders, w.intermediates} {
		for _, p := range ps {
			res.MemoryBytes += p.MemoryFootprint()
			relay.Add(p.Stats().Counters)
		}
	}
	for i := range w.pures {
		relay.Add(w.pures[i].Stats().Counters)
	}
	res.ForwardAccuracy = relay.Accuracy()
	chaosStats(&res, w.sched, w.downloaders, w.collection)
	return res
}
