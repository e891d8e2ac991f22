package core

import (
	"testing"
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// checkDerivedState holds the fetch state core keeps instead of recomputing
// to what it is derived from (docs/CONTRACTS.md, "Derived fetch state").
func checkDerivedState(t *testing.T, k *sim.Kernel, peers []*Peer) {
	t.Helper()
	for _, p := range peers {
		for _, cs := range p.collections {
			if cs.manifest == nil {
				continue
			}
			n := cs.manifest.TotalPackets()
			busy, union := bitmap.New(n), bitmap.New(n)
			for idx := range cs.inflight {
				busy.Set(idx)
			}
			for file, pkts := range cs.unverified {
				for pkt := range pkts {
					g := cs.manifest.GlobalIndex(file, pkt)
					busy.Set(g)
					if cs.own.Test(g) {
						t.Fatalf("t=%v peer %d: packet %d is advertised while still unverified", k.Now(), p.id, g)
					}
				}
			}
			if !cs.busy.Equal(busy) {
				t.Fatalf("t=%v peer %d: busy = %v, inflight ∪ buffered = %v", k.Now(), p.id, cs.busy.Ones(), busy.Ones())
			}
			for _, bm := range cs.avail {
				if bm.Len() == n {
					_ = union.Or(bm)
				}
			}
			if got := cs.availabilityUnion(); !got.Equal(union) {
				t.Fatalf("t=%v peer %d: cached union = %v, union of avail = %v", k.Now(), p.id, got.Ones(), union.Ones())
			}
			if cs.own.Count() != len(cs.packets) {
				t.Fatalf("t=%v peer %d: own has %d bits, %d packets stored", k.Now(), p.id, cs.own.Count(), len(cs.packets))
			}
		}
	}
}

// TestDerivedFetchStateMatchesSources checks the invariants after every
// kernel event of three runs that between them reach every site mutating
// inflight, unverified and avail: a lossy digest-format download (timeouts),
// a Merkle-format one (buffer and flush), and one where a downloader crashes
// mid-fetch and cold-restarts (Stop, neighbour expiry, Restart).
func TestDerivedFetchStateMatchesSources(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		format metadata.Format
		crash  bool
	}{
		{"digest", metadata.FormatPacketDigest, false},
		{"merkle", metadata.FormatMerkle, false},
		{"crash-restart", metadata.FormatMerkle, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			k := sim.NewKernel(41)
			medium := phy.NewMedium(k, phy.Config{Range: 100, LossRate: 0.2})
			res := testCollection(t, 3, 8, tc.format)
			coll := res.Manifest.Collection
			var peers []*Peer
			// A chain with one doubled link: two downloaders overhear each
			// other's replies, the far ones reach the producer only through
			// intermediates.
			for _, at := range []geo.Point{{}, {X: 70}, {X: 70, Y: 50}, {X: 140}, {X: 210}} {
				peers = append(peers, NewPeer(k, medium, geo.Stationary{At: at}, nil, nil, Config{}))
			}
			if err := peers[0].Publish(res); err != nil {
				t.Fatal(err)
			}
			for _, p := range peers {
				if p != peers[0] {
					p.Subscribe(ndn.ParseName("/coll-123"))
				}
				p.Start()
			}
			if tc.crash {
				// A downloader is stopped with Interests in flight and
				// packets buffered. The producer goes down mid-fetch for
				// longer than NeighborTTL, so its full bitmap expires from
				// its neighbours' avail; they re-advertise when it returns,
				// so its second crash has a non-empty avail to wipe. (The
				// times are chosen so that dropping any one unionStale
				// assignment fails this run.)
				k.ScheduleFunc(15*time.Second, peers[3].Crash)
				k.ScheduleFunc(60*time.Second, peers[3].Restart)
				k.ScheduleFunc(25*time.Second, peers[0].Crash)
				k.ScheduleFunc(85*time.Second, peers[0].Restart)
				k.ScheduleFunc(200*time.Second, peers[0].Crash)
				k.ScheduleFunc(230*time.Second, peers[0].Restart)
			}

			allDone := func() bool {
				for _, p := range peers[1:] {
					if done, _ := p.Done(coll); !done {
						return false
					}
				}
				return true
			}
			for k.Now() < 30*time.Minute && !(allDone() && (!tc.crash || k.Now() > 240*time.Second)) {
				if !k.Step() {
					break
				}
				checkDerivedState(t, k, peers)
			}
			if !allDone() {
				t.Fatal("downloads incomplete: the run did not exercise the full fetch path")
			}
			var timeouts, overheard uint64
			for _, p := range peers {
				timeouts += p.Stats().InterestTimeouts
				overheard += p.Stats().PacketsOverheard
			}
			if timeouts == 0 || overheard == 0 {
				t.Errorf("%d Interest timeouts, %d overheard packets: a release or buffer site went unexercised", timeouts, overheard)
			}
		})
	}
}
