package experiment

import (
	"fmt"
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/repo"
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

// peerWorld is a world whose nodes are all DAPES peers sharing one config:
// the Fig.-8 runs and the custom scenarios.
type peerWorld struct {
	*world
	cfg core.Config
}

// peer attaches a DAPES peer with the given mobility.
func (w *peerWorld) peer(m geo.Mobility) *core.Peer {
	return core.NewPeer(w.Kernel, w.medium, m, nil, nil, w.cfg)
}

func newScenarioWorld(e Engine, seed int64) *peerWorld {
	return &peerWorld{
		// Outdoor campus: ~50 m WiFi range per the paper's MacBooks.
		world: newWorld(seed, phy.Config{Range: 50, LossRate: 0.05}, e),
		cfg: core.Config{
			// Real-world runs used local-neighborhood RPF and interleaved
			// advertisement fetching (Section VI-B2).
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
	w := newScenarioWorld(s.Engine, seed)
	res, err := smallCollection("/fig8a", s.TotalPackets(), s.PacketSize)
	if err != nil {
		return ScenarioResult{}, err
	}
	coll := res.Manifest.Collection

	producer := w.peer(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	if err := producer.Publish(res); err != nil {
		return ScenarioResult{}, err
	}
	b := w.peer(geo.Stationary{At: geo.Point{X: 300, Y: 0}})
	c := w.peer(geo.Stationary{At: geo.Point{X: 300, Y: 300}})
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
	d := w.peer(geo.NewScripted(waypoints))

	downloaders := []*core.Peer{b, c, d}
	for _, p := range downloaders {
		p.Subscribe(coll)
		p.Start()
	}
	producer.Start()

	return runScenario(w, "carrier (Fig 8a)", coll, s.Horizon,
		append(downloaders, producer), downloaders), nil
}

// Scenario2Repo reproduces Fig. 8b: producer C uploads to a stationary
// repository; peers A and B later retrieve the collection from the repo.
func Scenario2Repo(s Scale, seed int64) (ScenarioResult, error) {
	w := newScenarioWorld(s.Engine, seed)
	res, err := smallCollection("/fig8b", s.TotalPackets(), s.PacketSize)
	if err != nil {
		return ScenarioResult{}, err
	}
	coll := res.Manifest.Collection

	repoAt := geo.Point{X: 150, Y: 150}
	rp := repo.New(w.Kernel, w.medium, repoAt, nil, nil, w.cfg, coll)
	// Producer C visits the repo, then leaves the area.
	producer := w.peer(geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 160, Y: 150}},
		{At: 240 * time.Second, Pos: geo.Point{X: 160, Y: 150}},
		{At: 300 * time.Second, Pos: geo.Point{X: 1500, Y: 1500}},
	}))
	if err := producer.Publish(res); err != nil {
		return ScenarioResult{}, err
	}
	// A and B fetch from the repo simultaneously; shared transmissions
	// satisfy both (step 3a/3b in the figure).
	a := w.peer(geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 1200, Y: 150}},
		{At: 120 * time.Second, Pos: geo.Point{X: 140, Y: 150}},
	}))
	b := w.peer(geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 150, Y: 1200}},
		{At: 120 * time.Second, Pos: geo.Point{X: 150, Y: 140}},
	}))

	downloaders := []*core.Peer{a, b}
	for _, p := range downloaders {
		p.Subscribe(coll)
		p.Start()
	}
	producer.Start()
	rp.Start()

	return runScenario(w, "repository (Fig 8b)", coll, s.Horizon,
		[]*core.Peer{a, b, producer, rp.Peer()}, downloaders), nil
}

// Scenario3Mobile reproduces Fig. 8c: four peers move through an
// infrastructure-free area with moments of total disconnection and moments
// of full connectivity; multi-hop chains form transiently.
func Scenario3Mobile(s Scale, seed int64) (ScenarioResult, error) {
	w := newScenarioWorld(s.Engine, seed)
	res, err := smallCollection("/fig8c", s.TotalPackets(), s.PacketSize)
	if err != nil {
		return ScenarioResult{}, err
	}
	coll := res.Manifest.Collection

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
	producer := w.peer(geo.NewScripted(corner(0, 0)))
	if err := producer.Publish(res); err != nil {
		return ScenarioResult{}, err
	}
	b := w.peer(geo.NewScripted(corner(150, 0)))
	c := w.peer(geo.NewScripted(corner(150, 150)))
	d := w.peer(geo.NewScripted(corner(0, 150)))

	downloaders := []*core.Peer{b, c, d}
	for _, p := range downloaders {
		p.Subscribe(coll)
		p.Start()
	}
	producer.Start()

	return runScenario(w, "mobile swarm (Fig 8c)", coll, s.Horizon,
		append(downloaders, producer), downloaders), nil
}

// runScenario drives a Fig.-8 world to completion and assembles the Table-I
// row.
func runScenario(w *peerWorld, name string, coll ndn.Name, horizon time.Duration, allPeers, downloaders []*core.Peer) ScenarioResult {
	w.RunUntil(horizon, allDone(w.Now, 0, len(downloaders), collectionDone(downloaders, coll)))

	completed := true
	var latest time.Duration
	for _, p := range downloaders {
		done, at := p.Done(coll)
		if !done {
			completed = false
			at = horizon
		}
		if at > latest {
			latest = at
		}
	}
	state := 0
	for _, p := range allPeers {
		state += p.MemoryFootprint()
	}
	st := w.Stats()
	return ScenarioResult{
		Name:          name,
		DownloadTime:  latest,
		Transmissions: st.Transmissions,
		Receptions:    st.Deliveries,
		StateBytes:    state,
		Completed:     completed,
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
