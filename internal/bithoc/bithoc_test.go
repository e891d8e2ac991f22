package bithoc

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

func TestSeederToLeecher(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(80) // a seed at which no request is re-sent: PiecesSent below is exact
	medium := phy.NewMedium(k, phy.Config{Range: 50})

	seed := NewPeer(k, medium, geo.Stationary{})
	seed.Seed(20, 100)
	leech := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 20}})
	leech.Fetch(20, 100)

	seed.Start()
	leech.Start()

	ok := k.RunUntil(10*time.Minute, func() bool {
		done, _ := leech.Done()
		return done
	})
	if !ok {
		have, total := leech.have.Count(), leech.nPieces
		t.Fatalf("download incomplete: %d/%d (stats %+v)", have, total, leech.stats)
	}
	if leech.stats.PiecesReceived != 20 {
		t.Fatalf("pieces received = %d", leech.stats.PiecesReceived)
	}
	if seed.stats.PiecesSent != 20 {
		t.Fatalf("pieces sent = %d", seed.stats.PiecesSent)
	}
	if seed.stats.HellosSent == 0 || leech.stats.HellosSent == 0 {
		t.Fatal("no HELLO flooding")
	}
	// DSDV proactive overhead must be present even for this tiny swarm.
	if seed.router.ControlTransmissions() == 0 {
		t.Fatal("no DSDV updates")
	}
}

func TestHelloFloodReachesTwoHops(t *testing.T) {
	t.Parallel()
	// a - b - c chain: c must learn a's bitmap through b's relay (TTL 2).
	k := sim.NewKernel(82)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 0}})
	b := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 40}})
	c := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 80}})
	a.Seed(5, 50)
	b.Fetch(5, 50)
	c.Fetch(5, 50)
	a.Start()
	b.Start()
	c.Start()
	k.Run(20 * time.Second)

	if _, ok := c.peers[a.ID()]; !ok {
		t.Fatal("c never learned about a through the scoped flood")
	}
	if c.peers[a.ID()].hops != 2 {
		t.Fatalf("a's hop distance at c = %d, want 2", c.peers[a.ID()].hops)
	}
	if b.stats.HellosRelayed == 0 {
		t.Fatal("b relayed no HELLOs")
	}
}

func TestTwoLeechersCostTwiceTheUnicasts(t *testing.T) {
	t.Parallel()
	// The paper's core claim about IP baselines: each receiver needs its own
	// unicast transmission even for identical data.
	k := sim.NewKernel(83)
	medium := phy.NewMedium(k, phy.Config{Range: 100})
	seed := NewPeer(k, medium, geo.Stationary{})
	seed.Seed(10, 100)
	l1 := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 20}})
	l2 := NewPeer(k, medium, geo.Stationary{At: geo.Point{Y: 20}})
	l1.Fetch(10, 100)
	l2.Fetch(10, 100)
	seed.Start()
	l1.Start()
	l2.Start()

	ok := k.RunUntil(10*time.Minute, func() bool {
		d1, _ := l1.Done()
		d2, _ := l2.Done()
		return d1 && d2
	})
	if !ok {
		t.Fatal("downloads incomplete")
	}
	// Pieces flow from the seed and, rarest-first, between leechers; the
	// total piece transmissions must be at least one per (piece, receiver).
	total := seed.stats.PiecesSent + l1.stats.PiecesSent + l2.stats.PiecesSent
	if total < 20 {
		t.Fatalf("piece transmissions = %d, want >= 20 (no multicast gain exists)", total)
	}
}

func TestLeecherStallsWithoutSeeder(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(84)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	leech := NewPeer(k, medium, geo.Stationary{})
	leech.Fetch(5, 100)
	leech.Start()
	k.Run(time.Minute)
	if done, _ := leech.Done(); done {
		t.Fatal("download completed without any source")
	}
	if leech.have.Count() != 0 {
		t.Fatal("pieces materialized from nowhere")
	}
}

// TestDeadSeederFailover pins the OnFail hook's consumer-side contract: a
// leecher whose current seeder dies mid-swarm must not stall on retry
// timeouts forever — the transport's abandoned-message report evicts the
// dead peer, and the piece planner re-pumps against the surviving holder.
// neighborTTL is set far beyond the horizon so HELLO expiry cannot mask the
// failover: only the OnFail path can remove the corpse.
func TestDeadSeederFailover(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(44) // a seed at which the leecher still has requests out to s1 at 20 s
	medium := phy.NewMedium(k, phy.Config{Range: 50})

	s1 := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 0}})
	s1.Seed(20, 100)
	s2 := NewPeer(k, medium, geo.Stationary{At: geo.Point{Y: 20}})
	s2.Seed(20, 100)
	leech := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 20}})
	leech.Fetch(20, 100)
	for _, p := range []*Peer{s1, s2, leech} {
		p.neighborTTL = 10 * time.Hour
	}

	s1.Start()
	s2.Start()
	leech.Start()

	// Long enough for HELLOs and a few pieces, then s1 goes dark without a
	// goodbye: routing keeps advertising it for a while and the leecher's
	// neighbor table would hold it for hours.
	k.Run(20 * time.Second)
	s1.radio.SetEnabled(false)

	ok := k.RunUntil(15*time.Minute, func() bool {
		done, _ := leech.Done()
		return done
	})
	if !ok {
		have, total := leech.have.Count(), leech.nPieces
		t.Fatalf("no failover to the live seeder: %d/%d (stats %+v, transport failures %d)",
			have, total, leech.stats, leech.reliable.Failures)
	}
	if leech.reliable.Failures == 0 {
		t.Fatal("download finished without any transport failure: the dead seeder was never exercised")
	}
}
