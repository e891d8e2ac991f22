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
		have, total := leech.Progress()
		t.Fatalf("download incomplete: %d/%d (stats %+v)", have, total, leech.Stats())
	}
	if leech.Stats().PiecesReceived != 20 {
		t.Fatalf("pieces received = %d", leech.Stats().PiecesReceived)
	}
	if seed.Stats().PiecesSent != 20 {
		t.Fatalf("pieces sent = %d", seed.Stats().PiecesSent)
	}
	if seed.Stats().HellosSent == 0 || leech.Stats().HellosSent == 0 {
		t.Fatal("no HELLO flooding")
	}
	// DSDV proactive overhead must be present even for this tiny swarm.
	if seed.Router().ControlTransmissions() == 0 {
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
	if b.Stats().HellosRelayed == 0 {
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
	total := seed.Stats().PiecesSent + l1.Stats().PiecesSent + l2.Stats().PiecesSent
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
	if have, _ := leech.Progress(); have != 0 {
		t.Fatal("pieces materialized from nowhere")
	}
}

// TestStopSilences holds "stopped means silent" for the whole baseline stack
// under a peer: an idle peer stops flooding, and peers stopped in the middle
// of a transfer — piece timeouts, transport RTOs and jittered sends all armed
// — put nothing more on the air and leave no event behind once the jitter
// slots already queued (at most 50 ms, the HELLO relay's) have drained.
func TestStopSilences(t *testing.T) {
	t.Parallel()
	t.Run("idle", func(t *testing.T) {
		t.Parallel()
		k := sim.NewKernel(85)
		medium := phy.NewMedium(k, phy.Config{Range: 50})
		p := NewPeer(k, medium, geo.Stationary{})
		p.Fetch(5, 100)
		p.Start()
		k.Run(10 * time.Second)
		sent := p.Stats().HellosSent
		p.Stop()
		k.Run(time.Minute)
		if p.Stats().HellosSent != sent {
			t.Fatal("stopped peer kept flooding")
		}
		if k.Pending() != 0 {
			t.Fatalf("%d events still pending a minute after Stop", k.Pending())
		}
	})
	t.Run("mid-transfer", func(t *testing.T) {
		t.Parallel()
		k := sim.NewKernel(85)
		medium := phy.NewMedium(k, phy.Config{Range: 50})
		seed := NewPeer(k, medium, geo.Stationary{})
		seed.Seed(200, 1000)
		leech := NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 30}})
		leech.Fetch(200, 1000)
		seed.Start()
		leech.Start()
		if !k.RunUntil(10*time.Minute, func() bool { have, _ := leech.Progress(); return have >= 20 }) {
			t.Fatal("transfer never reached 20 pieces")
		}
		if len(leech.inflight) == 0 || leech.Reliable().Pending()+seed.Reliable().Pending() == 0 {
			t.Fatal("nothing in flight at the stop point: the case is not exercised")
		}
		seed.Stop()
		leech.Stop()
		sent := medium.Stats().Transmissions
		if len(leech.inflight) != 0 || leech.Reliable().Pending() != 0 || seed.Reliable().Pending() != 0 {
			t.Fatalf("Stop left %d requests, %d+%d messages in flight",
				len(leech.inflight), leech.Reliable().Pending(), seed.Reliable().Pending())
		}
		k.Run(k.Now() + 50*time.Millisecond)
		if n := k.Pending(); n != 0 {
			t.Fatalf("%d events still pending 50 ms after Stop", n)
		}
		k.Run(k.Now() + time.Minute)
		if got := medium.Stats().Transmissions; got != sent {
			t.Fatalf("stopped peers kept transmitting: %d frames at Stop, %d a minute later", sent, got)
		}
	})
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
	s1.Stop()
	s1.Router().Radio().SetEnabled(false)

	ok := k.RunUntil(15*time.Minute, func() bool {
		done, _ := leech.Done()
		return done
	})
	if !ok {
		have, total := leech.Progress()
		t.Fatalf("no failover to the live seeder: %d/%d (stats %+v, transport failures %d)",
			have, total, leech.Stats(), leech.Reliable().Failures)
	}
	if leech.Reliable().Failures == 0 {
		t.Fatal("download finished without any transport failure: the dead seeder was never exercised")
	}
}
