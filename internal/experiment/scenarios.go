package experiment

import (
	"fmt"
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
)

// This file reproduces the Table-I real-world feasibility study over the
// three Fig.-8 outdoor scenarios, with scripted waypoint mobility standing
// in for the five MacBooks.
//
// The paper's Table I also reads OS counters (memory, context switches,
// system calls, page faults) from macOS. A simulation has no such counters,
// so its rows report what the simulation does have: the frames put on the
// air, the frames received, and the bytes of protocol state the peers hold.

// ScenarioResult is one Table-I row.
type ScenarioResult struct {
	Name          string
	DownloadTime  time.Duration
	Transmissions uint64
	// Receptions counts frames received (phy.Stats.Deliveries).
	Receptions uint64
	// StateBytes is the peers' protocol-state footprint
	// (core.Peer.MemoryFootprint summed over the world).
	StateBytes int
	Completed  bool
}

// newOutdoorWorld is the world of one Fig.-8 outdoor run at seed: the radio
// the catalog declares for it (outdoor: the MacBooks' ~50 m range at 5%
// loss), and the real-world runs' peer config (local-neighborhood RPF with
// interleaved advertisements, Section VI-B2, forwarding at 40%). Each run
// places its own handful of peers, so of the scale it reads only the
// collection size, the horizon and the engine.
//
// Its catalog trial (fig8a/b/c) reports the world as one downloader:
// completed is 1 only when every downloader finished, the download time is
// the last finisher's, and the memory is the Table-I state, which counts
// the producer (and fig8b's repository) beside the downloaders.
func newOutdoorWorld(s Scale, seed int64) *dapesWorld {
	return &dapesWorld{
		world: newWorld(seed, outdoor.Radio, s.Engine, s.Horizon),
		cfg: core.Config{
			Strategy:    core.LocalNeighborhoodRPF,
			RandomStart: true,
			AdvertMode:  core.Interleaved,
			UsePEBA:     true,
			Multihop:    true,
			ForwardProb: 0.4,
		},
	}
}

// Scenario1Carrier reproduces Fig. 8a: producer A's collection reaches B and
// C only through data carrier D, who shuttles between three disconnected
// 150 m-apart network segments.
func Scenario1Carrier(s Scale, seed int64) (ScenarioResult, error) {
	w := newOutdoorWorld(s, seed)
	res, err := smallCollection("/fig8a", s.TotalPackets(), s.PacketSize)
	if err != nil {
		return ScenarioResult{}, err
	}
	producer, err := w.publish(geo.Stationary{At: geo.Point{X: 0, Y: 0}}, res)
	if err != nil {
		return ScenarioResult{}, err
	}
	w.download(geo.Stationary{At: geo.Point{X: 300, Y: 0}})
	w.download(geo.Stationary{At: geo.Point{X: 300, Y: 300}})
	// Carrier D shuttles A -> B -> C -> A on a fixed patrol.
	var waypoints []geo.Waypoint
	leg := 150 * time.Second
	stops := []geo.Point{{X: 20, Y: 0}, {X: 280, Y: 0}, {X: 280, Y: 280}}
	for lap := 0; lap < 8; lap++ {
		for i, pos := range stops {
			at := time.Duration(lap*len(stops)+i) * leg
			waypoints = append(waypoints, geo.Waypoint{At: at, Pos: pos},
				geo.Waypoint{At: at + leg*2/3, Pos: pos})
		}
	}
	w.download(geo.NewScripted(waypoints))

	w.startDownloaders()
	producer.Start()
	return w.outdoorRow("carrier (Fig 8a)", producer), nil
}

// Scenario2Repo reproduces Fig. 8b: producer C uploads to a stationary
// repository; peers A and B later retrieve the collection from the repo.
func Scenario2Repo(s Scale, seed int64) (ScenarioResult, error) {
	w := newOutdoorWorld(s, seed)
	res, err := smallCollection("/fig8b", s.TotalPackets(), s.PacketSize)
	if err != nil {
		return ScenarioResult{}, err
	}

	repository := w.peer(geo.Stationary{At: geo.Point{X: 150, Y: 150}})
	repository.Subscribe(res.Manifest.Collection)
	// Producer C visits the repo, then leaves the area.
	producer, err := w.publish(geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 160, Y: 150}},
		{At: 240 * time.Second, Pos: geo.Point{X: 160, Y: 150}},
		{At: 300 * time.Second, Pos: geo.Point{X: 1500, Y: 1500}},
	}), res)
	if err != nil {
		return ScenarioResult{}, err
	}
	// A and B fetch from the repo simultaneously; shared transmissions
	// satisfy both (step 3a/3b in the figure).
	w.download(geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 1200, Y: 150}},
		{At: 120 * time.Second, Pos: geo.Point{X: 140, Y: 150}},
	}))
	w.download(geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 150, Y: 1200}},
		{At: 120 * time.Second, Pos: geo.Point{X: 150, Y: 140}},
	}))

	w.startDownloaders()
	producer.Start()
	repository.Start()
	return w.outdoorRow("repository (Fig 8b)", producer, repository), nil
}

// Scenario3Mobile reproduces Fig. 8c: four peers move through an
// infrastructure-free area with moments of total disconnection and moments
// of full connectivity; multi-hop chains form transiently.
func Scenario3Mobile(s Scale, seed int64) (ScenarioResult, error) {
	w := newOutdoorWorld(s, seed)
	res, err := smallCollection("/fig8c", s.TotalPackets(), s.PacketSize)
	if err != nil {
		return ScenarioResult{}, err
	}

	// Peers patrol the corners of a 150 m square, meeting pairwise at the
	// middle of each side and all together in the center every few minutes.
	corner := func(x, y float64) []geo.Waypoint {
		var pts []geo.Waypoint
		period := 240 * time.Second
		for lap := 0; lap < 12; lap++ {
			base := time.Duration(lap) * period
			pts = append(pts,
				geo.Waypoint{At: base, Pos: geo.Point{X: x, Y: y}},
				geo.Waypoint{At: base + 60*time.Second, Pos: geo.Point{X: x, Y: y}},
				geo.Waypoint{At: base + 120*time.Second, Pos: geo.Point{X: 75, Y: 75}},
				geo.Waypoint{At: base + 150*time.Second, Pos: geo.Point{X: 75, Y: 75}},
			)
		}
		return pts
	}
	producer, err := w.publish(geo.NewScripted(corner(0, 0)), res)
	if err != nil {
		return ScenarioResult{}, err
	}
	w.download(geo.NewScripted(corner(150, 0)))
	w.download(geo.NewScripted(corner(150, 150)))
	w.download(geo.NewScripted(corner(0, 150)))

	w.startDownloaders()
	producer.Start()
	return w.outdoorRow("mobile swarm (Fig 8c)", producer), nil
}

// outdoorRow runs a Fig.-8 world and folds it into its Table-I row: the
// last downloader's completion time (the horizon if one never finished),
// complete only when every downloader is, and the protocol state of the
// downloaders and of others, the world's other peers.
func (w *dapesWorld) outdoorRow(name string, others ...*core.Peer) ScenarioResult {
	w.runUntilDone(w.faultsUntil, len(w.downloaders), w.doneAt)
	res, latest := w.completion(len(w.downloaders), w.doneAt)
	state := 0
	for _, ps := range [][]*core.Peer{w.downloaders, others} {
		for _, p := range ps {
			state += p.MemoryFootprint()
		}
	}
	return ScenarioResult{
		Name:          name,
		DownloadTime:  latest,
		Transmissions: res.Transmissions,
		Receptions:    w.Stats().Deliveries,
		StateBytes:    state,
		Completed:     res.Completed == res.Downloaders,
	}
}

// TableIRows runs the real-world feasibility table: all three scenarios,
// each on its own seed, as the rows Figures' tableI entry renders.
func TableIRows(s Scale) ([]ScenarioResult, error) {
	var rows []ScenarioResult
	for i, run := range []func(Scale, int64) (ScenarioResult, error){
		Scenario1Carrier, Scenario2Repo, Scenario3Mobile,
	} {
		r, err := run(s, s.BaseSeed+int64(i))
		if err != nil {
			return rows, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// tableI renders Table I: download time, frames sent and received, and the
// protocol state of each scenario.
func tableI(title string, rows []ScenarioResult) Table {
	t := Table{
		Title:  title,
		Header: []string{"scenario", "time(s)", "transmissions", "receptions", "state(B)", "complete"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name,
			fmtSeconds(r.DownloadTime),
			fmt.Sprintf("%d", r.Transmissions),
			fmt.Sprintf("%d", r.Receptions),
			fmt.Sprintf("%d", r.StateBytes),
			fmt.Sprintf("%v", r.Completed),
		})
	}
	return t
}
