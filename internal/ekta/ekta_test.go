package ekta

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

func TestSeederToDownloader(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(91)
	medium := phy.NewMedium(k, phy.Config{Range: 60})

	seed := NewPeer(k, medium, geo.Stationary{})
	dl := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 20}})
	seed.Start()
	dl.Start()
	seed.Seed("coll", 15, 100)
	dl.Fetch("coll", 15, 100)
	dl.Join(seed.ID())
	k.Run(2 * time.Second)

	ok := k.RunUntil(10*time.Minute, func() bool {
		done, _ := dl.Done()
		return done
	})
	if !ok {
		have, total := dl.Progress()
		t.Fatalf("download incomplete: %d/%d (stats %+v)", have, total, dl.Stats())
	}
	st := dl.Stats()
	if st.Lookups == 0 {
		t.Fatal("no DHT lookups performed")
	}
	if st.PiecesReceived != 15 {
		t.Fatalf("pieces received = %d", st.PiecesReceived)
	}
	if seed.Stats().PiecesSent == 0 {
		t.Fatal("seed sent nothing")
	}
}

func TestThreeNodeOverlayFetch(t *testing.T) {
	t.Parallel()
	// Seed, relay-positioned node, and a 2-hop downloader: DSR routes the
	// DHT and data traffic through the middle node.
	k := sim.NewKernel(92)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	seed := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 0}})
	mid := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 40}})
	far := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 80}})
	for _, p := range []*Peer{seed, mid, far} {
		p.Start()
	}
	seed.Seed("c", 8, 100)
	mid.Fetch("c", 8, 100)
	far.Fetch("c", 8, 100)
	mid.Join(seed.ID())
	far.Join(mid.ID())
	k.Run(3 * time.Second)
	far.Join(seed.ID())

	ok := k.RunUntil(20*time.Minute, func() bool {
		d1, _ := mid.Done()
		d2, _ := far.Done()
		return d1 && d2
	})
	if !ok {
		mh, mt := mid.Progress()
		fh, ft := far.Progress()
		t.Fatalf("incomplete: mid %d/%d far %d/%d", mh, mt, fh, ft)
	}
	// DSR reactive routing must have flooded discoveries.
	if seed.Router().ControlTransmissions()+mid.Router().ControlTransmissions()+far.Router().ControlTransmissions() == 0 {
		t.Fatal("no DSR control traffic")
	}
}

func TestLookupFailureRetriesViaPump(t *testing.T) {
	t.Parallel()
	// Downloader starts before the seed publishes: early lookups fail, but
	// the pump keeps retrying and eventually succeeds.
	k := sim.NewKernel(93)
	medium := phy.NewMedium(k, phy.Config{Range: 60})
	seed := NewPeer(k, medium, geo.Stationary{})
	dl := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 20}})
	seed.Start()
	dl.Start()
	dl.Fetch("late", 4, 100)
	dl.Join(seed.ID())
	// Seed publishes only after 30 s.
	k.Schedule(30*time.Second, func() { seed.Seed("late", 4, 100) })

	ok := k.RunUntil(10*time.Minute, func() bool {
		done, _ := dl.Done()
		return done
	})
	if !ok {
		t.Fatalf("late-publish download incomplete: %+v", dl.Stats())
	}
	if dl.Stats().LookupFailures == 0 {
		t.Fatal("expected early lookup failures")
	}
}

func TestDownloaderRepublishesPieces(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(94)
	medium := phy.NewMedium(k, phy.Config{Range: 60})
	seed := NewPeer(k, medium, geo.Stationary{})
	dl := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 20}})
	seed.Start()
	dl.Start()
	seed.Seed("c", 5, 100)
	dl.Fetch("c", 5, 100)
	dl.Join(seed.ID())

	k.RunUntil(10*time.Minute, func() bool {
		done, _ := dl.Done()
		return done
	})
	// After completion, holder pointers for dl's copies exist in the DHT
	// (stored locally at whichever node is responsible).
	total := seed.DHT().LocalData() + dl.DHT().LocalData()
	if total < 5 {
		t.Fatalf("DHT holds %d piece pointers, want >= 5", total)
	}
}

func TestStopSilencesPeer(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(95)
	medium := phy.NewMedium(k, phy.Config{Range: 60})
	p := NewPeer(k, medium, geo.Stationary{})
	p.Fetch("c", 5, 100)
	p.Start()
	p.Stop()
	k.Run(time.Minute)
	if p.Stats().Lookups != 0 {
		t.Fatal("stopped peer performed lookups")
	}
}

// TestStopLeavesNothingArmed: peers stopped mid-download — GET timeouts,
// DHT lookups and DSR discoveries in flight — put nothing more on the air,
// and once the frames that were waiting out their jitter have come due the
// kernel holds no event of them.
func TestStopLeavesNothingArmed(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(96)
	medium := phy.NewMedium(k, phy.Config{Range: 60})
	seed := NewPeer(k, medium, geo.Stationary{})
	dl := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 20}})
	seed.Start()
	dl.Start()
	seed.Seed("coll", 200, 1000)
	dl.Fetch("coll", 200, 1000)
	dl.Join(seed.ID())
	if !k.RunUntil(10*time.Minute, func() bool { have, _ := dl.Progress(); return have >= 20 }) {
		t.Fatal("download never reached 20 pieces")
	}
	if len(dl.pending) == 0 {
		t.Fatal("nothing in flight at the stop point: the case is not exercised")
	}
	seed.Stop()
	dl.Stop()
	if len(dl.pending) != 0 {
		t.Fatalf("Stop left %d pieces in flight", len(dl.pending))
	}
	sent := medium.Stats().Transmissions
	k.Run(k.Now() + 100*time.Millisecond)
	if n := k.Pending(); n != 0 {
		t.Fatalf("%d events still pending 100 ms after Stop", n)
	}
	k.Run(k.Now() + time.Minute)
	if got := medium.Stats().Transmissions; got != sent {
		t.Fatalf("stopped peers kept transmitting: %d frames at Stop, %d a minute later", sent, got)
	}
}
