package core

import (
	"bytes"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// testNet is a small in-range network fixture.
type testNet struct {
	k      *sim.Kernel
	medium *phy.Medium
}

func newTestNet(seed int64, rng float64) *testNet {
	k := sim.NewKernel(seed)
	return &testNet{k: k, medium: phy.NewMedium(k, phy.Config{Range: rng})}
}

func (n *testNet) peer(at geo.Point, cfg Config) *Peer {
	return NewPeer(n.k, n.medium, geo.Stationary{At: at}, nil, nil, cfg)
}

func testCollection(t *testing.T, nFiles, pktsPerFile int, format metadata.Format) *metadata.BuildResult {
	t.Helper()
	files := make([]metadata.File, nFiles)
	for i := range files {
		files[i] = metadata.File{
			Name:    "file-" + string(rune('a'+i)),
			Content: bytes.Repeat([]byte{byte(i + 1)}, pktsPerFile*100),
		}
	}
	res, err := metadata.BuildCollection(ndn.ParseName("/coll-123"), files, 100, format, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTwoPeerTransfer(t *testing.T) {
	t.Parallel()
	net := newTestNet(1, 100)
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)

	producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	downloader := net.peer(geo.Point{X: 30, Y: 0}, Config{})
	downloader.Subscribe(ndn.ParseName("/coll-123"))

	producer.Start()
	downloader.Start()

	coll := res.Manifest.Collection
	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := downloader.Done(coll)
		return done
	})
	if !ok {
		have, total := downloader.Progress(coll)
		t.Fatalf("download incomplete: %d/%d packets", have, total)
	}
	done, at := downloader.Done(coll)
	if !done || at <= 0 {
		t.Fatalf("Done = %v at %v", done, at)
	}
	// Every packet must verify against the manifest.
	for i := 0; i < res.Manifest.TotalPackets(); i++ {
		if !downloader.find(coll).own.Test(i) {
			t.Fatalf("missing packet %d", i)
		}
	}
	if downloader.Stats().VerifyFailures != 0 {
		t.Fatalf("verify failures: %d", downloader.Stats().VerifyFailures)
	}
}

func TestTwoPeerTransferMerkleFormat(t *testing.T) {
	t.Parallel()
	net := newTestNet(2, 100)
	res := testCollection(t, 2, 8, metadata.FormatMerkle)

	producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	downloader := net.peer(geo.Point{X: 20, Y: 0}, Config{})
	downloader.Subscribe(ndn.ParseName("/coll-123"))
	producer.Start()
	downloader.Start()

	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := downloader.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		have, total := downloader.Progress(res.Manifest.Collection)
		t.Fatalf("merkle download incomplete: %d/%d", have, total)
	}
}

func TestTransferWithLoss(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(3)
	medium := phy.NewMedium(k, phy.Config{Range: 100, LossRate: 0.10})
	res := testCollection(t, 1, 20, metadata.FormatPacketDigest)

	producer := NewPeer(k, medium, geo.Stationary{}, nil, nil, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 40}}, nil, nil, Config{})
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()

	ok := k.RunUntil(10*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		have, total := dl.Progress(res.Manifest.Collection)
		t.Fatalf("lossy download incomplete: %d/%d", have, total)
	}
}

func TestThreePeersShareSingleTransmissions(t *testing.T) {
	t.Parallel()
	// Two downloaders in range of the producer and of each other: overheard
	// data must serve both (the paper's "maximize utility of transmissions").
	net := newTestNet(4, 100)
	res := testCollection(t, 1, 15, metadata.FormatPacketDigest)

	cfg := Config{RandomStart: true}
	producer := net.peer(geo.Point{X: 0, Y: 0}, cfg)
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	d1 := net.peer(geo.Point{X: 30, Y: 0}, cfg)
	d2 := net.peer(geo.Point{X: 0, Y: 30}, cfg)
	d1.Subscribe(res.Manifest.Collection)
	d2.Subscribe(res.Manifest.Collection)
	producer.Start()
	d1.Start()
	d2.Start()

	ok := net.k.RunUntil(10*time.Minute, func() bool {
		a, _ := d1.Done(res.Manifest.Collection)
		b, _ := d2.Done(res.Manifest.Collection)
		return a && b
	})
	if !ok {
		t.Fatal("both downloads did not complete")
	}
	// Overhearing must have contributed at one of the downloaders: total
	// data transmissions should be well below 2x the packet count.
	total := producer.Stats().DataSent + d1.Stats().DataSent + d2.Stats().DataSent
	n := uint64(res.Manifest.TotalPackets())
	if total >= 2*n {
		t.Fatalf("no transmission sharing: %d data sent for %d packets x 2 peers", total, n)
	}
	if d1.Stats().PacketsOverheard+d2.Stats().PacketsOverheard == 0 {
		t.Fatal("no packets overheard despite shared medium")
	}
}

func TestPeerRelaysBetweenEncounters(t *testing.T) {
	t.Parallel()
	// Data-carrier scenario (Fig. 8a): B meets the producer first, then
	// carries the collection to C who is never in the producer's range.
	k := sim.NewKernel(5)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	res := testCollection(t, 1, 10, metadata.FormatPacketDigest)

	producer := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 0}}, nil, nil, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	// Carrier: near producer for 120s, then moves to x=200.
	carrier := NewPeer(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 30}},
		{At: 120 * time.Second, Pos: geo.Point{X: 30}},
		{At: 150 * time.Second, Pos: geo.Point{X: 200}},
	}), nil, nil, Config{})
	carrier.Subscribe(res.Manifest.Collection)
	// Remote peer at x=220: only ever in range of the carrier's final spot.
	remote := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 220}}, nil, nil, Config{})
	remote.Subscribe(res.Manifest.Collection)

	producer.Start()
	carrier.Start()
	remote.Start()

	ok := k.RunUntil(15*time.Minute, func() bool {
		done, _ := remote.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		ch, ct := carrier.Progress(res.Manifest.Collection)
		rh, rt := remote.Progress(res.Manifest.Collection)
		t.Fatalf("relay failed: carrier %d/%d, remote %d/%d", ch, ct, rh, rt)
	}
}

// TestStationarySubscriberCollectsAndServes is the repository of Fig. 8b: a
// stationary peer subscribed to a collection collects it from a producer
// passing by, and serves it to a peer that arrives after the producer has
// left.
func TestStationarySubscriberCollectsAndServes(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(31)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	res, err := metadata.BuildCollection(ndn.ParseName("/repo-coll"),
		[]metadata.File{{Name: "f", Content: bytes.Repeat([]byte{1}, 800)}},
		100, metadata.FormatPacketDigest, nil)
	if err != nil {
		t.Fatal(err)
	}
	coll := res.Manifest.Collection

	repo := NewPeer(k, medium, geo.Stationary{}, nil, nil, Config{})
	repo.Subscribe(coll)
	// Producer C: near the repository until t=120s, then gone.
	producer := NewPeer(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 20}},
		{At: 120 * time.Second, Pos: geo.Point{X: 20}},
		{At: 125 * time.Second, Pos: geo.Point{X: 900}},
	}), nil, nil, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	// Peer A arrives near the repository at t=200s, after C has left.
	a := NewPeer(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: -900}},
		{At: 200 * time.Second, Pos: geo.Point{X: -20}},
	}), nil, nil, Config{})
	a.Subscribe(coll)

	repo.Start()
	producer.Start()
	a.Start()

	if !k.RunUntil(3*time.Minute, func() bool { ok, _ := repo.Done(coll); return ok }) {
		h, tot := repo.Progress(coll)
		t.Fatalf("repository did not collect: %d/%d", h, tot)
	}
	if !k.RunUntil(20*time.Minute, func() bool { ok, _ := a.Done(coll); return ok }) {
		h, tot := a.Progress(coll)
		t.Fatalf("A did not download from the repository: %d/%d", h, tot)
	}
}

func TestAdaptiveBeaconPeriodGrowsInIsolation(t *testing.T) {
	t.Parallel()
	net := newTestNet(6, 50)
	lonely := net.peer(geo.Point{}, Config{})
	lonely.Start()
	net.k.Run(2 * time.Minute)
	if lonely.beaconPeriod != beaconPeriodMax {
		t.Fatalf("isolated peer period = %v, want max %v", lonely.beaconPeriod, beaconPeriodMax)
	}
	// Beacons must still be sent, just less often.
	if lonely.Stats().DiscoveryInterestsSent == 0 {
		t.Fatal("no beacons sent")
	}
}

func TestAdaptiveBeaconPeriodShrinksOnEncounter(t *testing.T) {
	t.Parallel()
	net := newTestNet(7, 100)
	a := net.peer(geo.Point{X: 0}, Config{})
	b := net.peer(geo.Point{X: 10}, Config{})
	a.Start()
	b.Start()
	net.k.Run(5 * time.Second)
	if a.beaconPeriod > beaconPeriodMin*2 {
		t.Fatalf("encountering peer period = %v, want near min", a.beaconPeriod)
	}
	if len(a.neighbors) != 1 || len(b.neighbors) != 1 {
		t.Fatalf("neighbors: %d, %d", len(a.neighbors), len(b.neighbors))
	}
}

func TestNeighborExpiry(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(8)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := NewPeer(k, medium, geo.Stationary{}, nil, nil, Config{})
	// b walks out of range after 10s.
	b := NewPeer(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 10}},
		{At: 10 * time.Second, Pos: geo.Point{X: 10}},
		{At: 12 * time.Second, Pos: geo.Point{X: 500}},
	}), nil, nil, Config{})
	a.Start()
	b.Start()
	k.Run(3 * time.Second)
	if len(a.neighbors) != 1 {
		t.Fatalf("neighbor not discovered: %d", len(a.neighbors))
	}
	k.Run(5 * time.Minute)
	if len(a.neighbors) != 0 {
		t.Fatalf("stale neighbor not expired: %d", len(a.neighbors))
	}
}

func TestBitmapsFirstModeCompletes(t *testing.T) {
	t.Parallel()
	net := newTestNet(9, 100)
	res := testCollection(t, 1, 10, metadata.FormatPacketDigest)
	producer := net.peer(geo.Point{}, Config{AdvertMode: BitmapsFirst, BitmapsBefore: 1})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := net.peer(geo.Point{X: 20}, Config{AdvertMode: BitmapsFirst, BitmapsBefore: 1})
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()
	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		t.Fatal("bitmaps-first download incomplete")
	}
}

func TestAllBitmapsModeCompletes(t *testing.T) {
	t.Parallel()
	net := newTestNet(10, 100)
	res := testCollection(t, 1, 8, metadata.FormatPacketDigest)
	cfg := Config{AdvertMode: BitmapsFirst, BitmapsBefore: 0}
	producer := net.peer(geo.Point{}, cfg)
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := net.peer(geo.Point{X: 20}, cfg)
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()
	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		t.Fatal("all-bitmaps download incomplete")
	}
}

func TestEncounterBasedStrategyCompletes(t *testing.T) {
	t.Parallel()
	net := newTestNet(11, 100)
	res := testCollection(t, 1, 10, metadata.FormatPacketDigest)
	cfg := Config{Strategy: EncounterBasedRPF, RandomStart: true}
	producer := net.peer(geo.Point{}, cfg)
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := net.peer(geo.Point{X: 20}, cfg)
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()
	ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		t.Fatal("encounter-based download incomplete")
	}
}

func TestStatsAccounting(t *testing.T) {
	t.Parallel()
	net := newTestNet(12, 100)
	res := testCollection(t, 1, 5, metadata.FormatPacketDigest)
	producer := net.peer(geo.Point{}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	dl := net.peer(geo.Point{X: 20}, Config{})
	dl.Subscribe(res.Manifest.Collection)
	producer.Start()
	dl.Start()
	net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})

	ps, ds := producer.Stats(), dl.Stats()
	if ps.DiscoveryInterestsSent == 0 || ds.DiscoveryInterestsSent == 0 {
		t.Fatal("no discovery beacons counted")
	}
	if ps.DiscoveryDataSent == 0 {
		t.Fatal("producer sent no discovery replies")
	}
	if ds.MetaInterestsSent == 0 || ps.MetaDataSent == 0 {
		t.Fatal("metadata exchange not counted")
	}
	if ds.DataInterestsSent == 0 || ps.DataSent == 0 {
		t.Fatal("data exchange not counted")
	}
	if ds.BitmapInterestsSent == 0 {
		t.Fatal("no bitmap interest sent")
	}
	if dl.MemoryFootprint() == 0 {
		t.Fatal("memory footprint zero for active peer")
	}
}

func TestStopHaltsTraffic(t *testing.T) {
	t.Parallel()
	net := newTestNet(13, 100)
	a := net.peer(geo.Point{}, Config{})
	a.Start()
	net.k.Run(10 * time.Second)
	sent := a.Stats().DiscoveryInterestsSent
	if sent == 0 {
		t.Fatal("no beacons before stop")
	}
	a.Stop()
	net.k.Run(60 * time.Second)
	if got := a.Stats().DiscoveryInterestsSent; got != sent {
		t.Fatalf("beacons after Stop: %d -> %d", sent, got)
	}
}

func TestPublishTwiceDistinctCollections(t *testing.T) {
	t.Parallel()
	net := newTestNet(14, 100)
	p := net.peer(geo.Point{}, Config{})
	res1 := testCollection(t, 1, 3, metadata.FormatPacketDigest)
	files := []metadata.File{{Name: "x", Content: []byte("abc")}}
	res2, err := metadata.BuildCollection(ndn.ParseName("/other"), files, 100, metadata.FormatMerkle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(res1); err != nil {
		t.Fatal(err)
	}
	if err := p.Publish(res2); err != nil {
		t.Fatal(err)
	}
	if done, _ := p.Done(res1.Manifest.Collection); !done {
		t.Fatal("published collection not done")
	}
	if done, _ := p.Done(res2.Manifest.Collection); !done {
		t.Fatal("second collection not done")
	}
	if h, tot := p.Progress(res1.Manifest.Collection); h != tot || tot == 0 {
		t.Fatalf("producer progress %d/%d", h, tot)
	}
}

func TestUnknownCollectionQueries(t *testing.T) {
	t.Parallel()
	net := newTestNet(15, 100)
	p := net.peer(geo.Point{}, Config{})
	if done, _ := p.Done(ndn.ParseName("/nope")); done {
		t.Fatal("unknown collection reported done")
	}
	if h, tot := p.Progress(ndn.ParseName("/nope")); h != 0 || tot != 0 {
		t.Fatal("unknown collection reported progress")
	}
	if p.find(ndn.ParseName("/nope")) != nil {
		t.Fatal("unknown collection has state")
	}
}
