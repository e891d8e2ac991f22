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
		have, total := dl.have.Count(), dl.nPieces
		t.Fatalf("download incomplete: %d/%d (stats %+v)", have, total, dl.stats)
	}
	st := dl.stats
	if st.Lookups == 0 {
		t.Fatal("no DHT lookups performed")
	}
	if st.PiecesReceived != 15 {
		t.Fatalf("pieces received = %d", st.PiecesReceived)
	}
	if seed.stats.PiecesSent == 0 {
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
		mh, mt := mid.have.Count(), mid.nPieces
		fh, ft := far.have.Count(), far.nPieces
		t.Fatalf("incomplete: mid %d/%d far %d/%d", mh, mt, fh, ft)
	}
	// DSR reactive routing must have flooded discoveries.
	if seed.router.ControlTransmissions()+mid.router.ControlTransmissions()+far.router.ControlTransmissions() == 0 {
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
		t.Fatalf("late-publish download incomplete: %+v", dl.stats)
	}
	if dl.stats.LookupFailures == 0 {
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
	total := seed.node.LocalData() + dl.node.LocalData()
	if total < 5 {
		t.Fatalf("DHT holds %d piece pointers, want >= 5", total)
	}
}
