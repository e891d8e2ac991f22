package experiment

import (
	"time"

	"dapes/internal/bithoc"
	"dapes/internal/ekta"
	"dapes/internal/geo"
	"dapes/internal/routing"
)

// RunBithocTrial executes one Fig.-7 trial of the Bithoc baseline: DSDV
// proactive routing, scoped HELLO flooding, TCP-like piece transfer. The 20
// non-downloading mobile nodes run plain DSDV and forward by routing table,
// matching the paper's setup.
func RunBithocTrial(s Scale, wifiRange float64, trial int) (TrialResult, error) {
	res, _ := bithocTrial(s, wifiRange, trial)
	return res, nil
}

// bithocTrial is RunBithocTrial handing back the world it ran on, so the
// absolute golden can read the medium and kernel counters a TrialResult
// does not carry.
func bithocTrial(s Scale, wifiRange float64, trial int) (TrialResult, *world) {
	w, topo := newFig7World(s, wifiRange, trial)
	k, medium := w.Kernel, w.medium
	pieces := s.TotalPackets()

	seed := bithoc.NewPeer(k, medium, topo.producerMobility)
	seed.Seed(pieces, s.PacketSize)

	var downloaders []*bithoc.Peer
	addDownloader := func(m geo.Mobility) {
		p := bithoc.NewPeer(k, medium, m)
		p.Fetch(pieces, s.PacketSize)
		downloaders = append(downloaders, p)
	}
	for _, pos := range topo.stationaryPos {
		addDownloader(geo.Stationary{At: pos})
	}
	for _, m := range topo.downloaderMobility {
		addDownloader(m)
	}

	var routers []*routing.DSDV
	for _, m := range topo.forwarderMobility {
		routers = append(routers, routing.NewDSDV(k, medium, m))
	}

	seed.Start()
	for _, p := range downloaders {
		p.Start()
	}
	for _, r := range routers {
		r.Start()
	}

	return driveBaseline(w, downloaders), w
}

// RunEktaTrial executes one Fig.-7 trial of the Ekta baseline: DSR reactive
// routing, Pastry-style DHT object location, UDP-like transfers.
func RunEktaTrial(s Scale, wifiRange float64, trial int) (TrialResult, error) {
	res, _ := ektaTrial(s, wifiRange, trial)
	return res, nil
}

// ektaTrial is RunEktaTrial handing back its world, like bithocTrial.
func ektaTrial(s Scale, wifiRange float64, trial int) (TrialResult, *world) {
	w, topo := newFig7World(s, wifiRange, trial)
	k, medium := w.Kernel, w.medium
	pieces := s.TotalPackets()
	const swarm = "field-report"

	seedPeer := ekta.NewPeer(k, medium, topo.producerMobility)

	var downloaders []*ekta.Peer
	addDownloader := func(m geo.Mobility) {
		p := ekta.NewPeer(k, medium, m)
		downloaders = append(downloaders, p)
	}
	for _, pos := range topo.stationaryPos {
		addDownloader(geo.Stationary{At: pos})
	}
	for _, m := range topo.downloaderMobility {
		addDownloader(m)
	}

	var routers []*routing.DSR
	for _, m := range topo.forwarderMobility {
		routers = append(routers, routing.NewDSR(k, medium, m))
	}

	seedPeer.Start()
	for _, r := range routers {
		r.Start()
	}
	seedPeer.Seed(swarm, pieces, s.PacketSize)
	for _, p := range downloaders {
		p.Start()
		p.Fetch(swarm, pieces, s.PacketSize)
		p.Join(seedPeer.ID())
	}

	return driveBaseline(w, downloaders), w
}

// driveBaseline drives a started baseline world until every downloader has
// the file (or the horizon passes) and folds it into a TrialResult.
func driveBaseline[P interface{ Done() (bool, time.Duration) }](w *world, downloaders []P) TrialResult {
	doneAt := func(i int) (bool, time.Duration) { return downloaders[i].Done() }
	w.runUntilDone(0, len(downloaders), doneAt)
	res, _ := w.completion(len(downloaders), doneAt)
	return res
}
