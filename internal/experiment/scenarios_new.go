package experiment

import (
	"math"
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/phy"
)

// This file holds catalog scenarios beyond the paper's own evaluation:
// workloads the Fig. 7 topology never exercised (partition healing, convoy
// mobility with churn, dense urban node counts). Each trial builds its own
// kernel from TrialSeed, so the Runner may execute them concurrently.

// newTrialWorld is the common preamble of the custom scenarios: a seeded
// world at the requested range, the paper-default peer config, and the
// image-file collection published by a producer on the given mobility.
func newTrialWorld(s Scale, wifiRange float64, trial int, producerMobility geo.Mobility) (*dapesWorld, *core.Peer, error) {
	seed := TrialSeed(s.BaseSeed, trial)
	w := &dapesWorld{
		world: newWorld(seed, phy.Config{Range: wifiRange, LossRate: s.LossRate}, s.Engine, s.Horizon),
		cfg:   PaperDefaults(),
	}
	res, err := buildCollection(s, seed)
	if err != nil {
		return nil, nil, err
	}
	producer, err := w.publish(producerMobility, res)
	if err != nil {
		return nil, nil, err
	}
	return w, producer, nil
}

// clusterSize derives the per-cluster peer count from the scale's node mix.
func clusterSize(s Scale) int {
	n := (s.Stationary + s.MobileDown) / 4
	if n < 3 {
		n = 3
	}
	return n
}

// ringPositions places n peers evenly on a circle that keeps every member
// within radio range of the cluster center.
func ringPositions(center geo.Point, radius float64, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geo.Point{X: center.X + radius*math.Cos(a), Y: center.Y + radius*math.Sin(a)}
	}
	return pts
}

// partitionedMergeTrial runs two clusters that start far beyond radio reach
// — the producer's cluster A and a disconnected cluster B — and merge when
// cluster B relocates a third of the way into the horizon. Cluster A peers
// finish early; cluster B peers can only complete after the merge, so the
// scenario stresses advertisement exchange and RPF restart on a healed
// partition.
func partitionedMergeTrial(s Scale, _ float64, trial int) (TrialResult, error) {
	wifiRange := merging.Radio.Range
	n := clusterSize(s)
	radius := wifiRange * 0.35
	centerA := geo.Point{X: 2 * wifiRange, Y: 2 * wifiRange}
	centerB := geo.Point{X: centerA.X + 10*wifiRange, Y: centerA.Y}
	merge := s.Horizon / 3
	walk := 2 * time.Minute

	w, producer, err := newTrialWorld(s, wifiRange, trial, geo.Stationary{At: centerA})
	if err != nil {
		return TrialResult{}, err
	}

	for _, pos := range ringPositions(centerA, radius, n) {
		w.download(geo.Stationary{At: pos})
	}
	dest := ringPositions(geo.Point{X: centerA.X, Y: centerA.Y + 2.2*radius}, radius, n)
	for i, pos := range ringPositions(centerB, radius, n) {
		m := geo.NewScripted([]geo.Waypoint{
			{At: 0, Pos: pos},
			{At: merge, Pos: pos},
			{At: merge + walk, Pos: dest[i]},
		})
		w.download(m)
	}

	producer.Start()
	w.startDownloaders()
	return w.run(), nil
}

// convoyChurnTrial runs a producer-led convoy down a 1.5 km road with peer
// churn: every third rider drops out mid-route (pulls off beyond radio
// reach) and every third joins late from a side street, so membership is
// never stable. The convoy itself stays a connected multi-hop chain, which
// exercises forwarding under continuous topology change.
func convoyChurnTrial(s Scale, wifiRange float64, trial int) (TrialResult, error) {
	const (
		roadLen = 1500.0
		speed   = 5.0 // m/s
	)
	tEnd := time.Duration(roadLen/speed) * time.Second
	// Spacing covers a two-slot gap (0.9x range): when a dropout leaves a
	// hole in the column, the riders around it stay in radio contact, so a
	// single departure degrades the chain without severing the tail.
	// Dropouts are every third rider and never adjacent.
	spacing := wifiRange * 0.45
	if spacing > 25 {
		spacing = 25
	}
	n := clusterSize(s) + 1

	// The producer leads the convoy from the front of the column.
	lead := geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 0, Y: 0}},
		{At: tEnd, Pos: geo.Point{X: roadLen, Y: 0}},
	})
	w, producer, err := newTrialWorld(s, wifiRange, trial, lead)
	if err != nil {
		return TrialResult{}, err
	}

	for i := 0; i < n; i++ {
		x0 := -spacing * float64(i+1)
		// slot is rider i's convoy position at a given time; the convoy
		// parks at the road end, so positions clamp at tEnd.
		slot := func(at time.Duration) geo.Point {
			if at > tEnd {
				at = tEnd
			}
			return geo.Point{X: x0 + speed*at.Seconds(), Y: 0}
		}
		// Churn is timed off the ride itself (tEnd), not the horizon, so
		// dropouts and joins genuinely happen mid-route.
		var m geo.Mobility
		switch i % 3 {
		case 1: // dropout: pulls 800 m off-road a quarter into the ride
			drop := tEnd/4 + time.Duration(i)*20*time.Second
			m = geo.NewScripted([]geo.Waypoint{
				{At: 0, Pos: slot(0)},
				{At: drop, Pos: slot(drop)},
				{At: drop + time.Minute, Pos: geo.Point{X: slot(drop).X, Y: 800}},
			})
		case 2: // joiner: waits on a side street, merges into the convoy late
			join := tEnd/6 + time.Duration(i)*15*time.Second
			mergeAt := join + 2*time.Minute
			side := geo.Point{X: slot(join).X, Y: 600}
			wps := []geo.Waypoint{{At: 0, Pos: side}, {At: join, Pos: side},
				{At: mergeAt, Pos: slot(mergeAt)}}
			if mergeAt < tEnd {
				wps = append(wps, geo.Waypoint{At: tEnd, Pos: slot(tEnd)})
			}
			m = geo.NewScripted(wps)
		default: // steady rider
			m = geo.NewScripted([]geo.Waypoint{
				{At: 0, Pos: slot(0)},
				{At: tEnd, Pos: slot(tEnd)},
			})
		}
		w.download(m)
	}

	producer.Start()
	w.startDownloaders()
	return w.run(), nil
}

// denseScale multiplies the scale's mobile node mix (downloaders, pure
// forwarders, intermediates) by mult. side is the arena edge when the scale
// names none; zero leaves that to the caller's own area rule.
func denseScale(s Scale, mult int, side float64) Scale {
	s.MobileDown *= mult
	s.PureForwarders *= mult
	s.Intermediates *= mult
	if s.AreaSide <= 0 {
		s.AreaSide = side
	}
	return s
}

// urbanGridScale is the Fig.-7 workload at metropolitan density: five
// times the mobile downloaders, pure forwarders, and intermediates in a
// 1.5x-edge area (~2.2x the paper's node density). It is the scaling smoke
// test every performance PR should move.
func urbanGridScale(s Scale) Scale { return denseScale(s, 5, areaSide*1.5) }

// urbanGridXLScale pushes urban-grid another 5x: 25x the scale's node mix
// in a 3x-edge area (~2.8x the paper's density, ~1000 nodes at
// ReducedScale). The phy grid index is what makes this tractable — under
// the naive scan every broadcast paid for the full node population.
func urbanGridXLScale(s Scale) Scale { return denseScale(s, 25, areaSide*3) }

// urbanMetroScale is urban-grid-xl's node mix in a density-preserving
// area: the 25x mix in an area scaled so nodes per square meter match the
// paper's Fig.-7 world, which at plan scale (plans/urban-metro.toml)
// reaches 50k+ nodes.
func urbanMetroScale(s Scale) Scale {
	metro := denseScale(s, 25, 0)
	if metro.AreaSide <= 0 {
		total := float64(1 + metro.Stationary + metro.MobileDown + metro.PureForwarders + metro.Intermediates)
		metro.AreaSide = areaSide * math.Sqrt(total/45)
	}
	return metro
}
