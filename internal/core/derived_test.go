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

// heardKey names one availability entry: what peer holds for owner's bitmap
// of the collection.
type heardKey struct {
	peer  *Peer
	uri   string
	owner int
}

// tapAdvertisements wraps every peer's frame handler to keep, per
// availability entry, a fresh bitmap.Decode of the last advertisement the peer
// accepted for it. The entries themselves are decoded in place, over the
// previous advertisement, so this is the definition they are held to. The tap
// repeats the handlers' acceptance rules: a running peer, a bitmap Interest
// whose nonce is not a recent duplicate or a bitmap Data, a well-formed
// payload, and the manifest's length when the peer has the manifest (any
// length, multi-hop only, when it does not).
func tapAdvertisements(k *sim.Kernel, peers []*Peer) map[heardKey]*bitmap.Bitmap {
	last := make(map[heardKey]*bitmap.Bitmap)
	for _, p := range peers {
		deliver := p.radio.Handler()
		p.radio.SetHandler(func(f phy.Frame) {
			var raw []byte
			if in := f.Packet().Interest(); in != nil && isBitmapInterest(in.Name) {
				if !p.relay.Heard(in.Nonce) {
					raw = in.AppParams
				}
			} else if d := f.Packet().Data(); d != nil && isBitmapData(d.Name) {
				raw = d.Content
			}
			running := p.running
			deliver(f)
			payload, err := decodeBitmapPayload(raw)
			if !running || err != nil {
				return
			}
			cs := p.collections[string(payload.CollectionURI)]
			if cs == nil || (cs.manifest == nil && !p.cfg.Multihop) ||
				(cs.manifest != nil && payload.Bits != cs.manifest.TotalPackets()) {
				return
			}
			bm, err := bitmap.Decode(payload.Bitmap)
			if err != nil {
				panic(err) // decodeBitmapPayload checked the header
			}
			last[heardKey{p, cs.uri, payload.Owner}] = bm
		})
	}
	return last
}

// checkDerivedState holds the fetch state core keeps instead of recomputing
// to what it is derived from (docs/CONTRACTS.md, "Derived fetch state").
func checkDerivedState(t *testing.T, k *sim.Kernel, peers []*Peer, heard map[heardKey]*bitmap.Bitmap) {
	t.Helper()
	for _, p := range peers {
		for _, cs := range p.collections {
			for owner, bm := range cs.avail {
				want := heard[heardKey{p, cs.uri, owner}]
				if want == nil || !bm.Equal(want) {
					t.Fatalf("t=%v peer %d: avail[%d] of %s is not a fresh decode of the last advertisement accepted from it", k.Now(), p.id, owner, cs.uri)
				}
			}
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

			heard := tapAdvertisements(k, peers)
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
				checkDerivedState(t, k, peers, heard)
			}
			if !allDone() {
				t.Fatal("downloads incomplete: the run did not exercise the full fetch path")
			}
			var timeouts, overheard uint64
			for _, p := range peers {
				timeouts += p.Stats().InterestTimeouts
				overheard += p.Stats().PacketsOverheard
			}
			if len(heard) < len(peers) {
				t.Errorf("%d availability entries were ever checked against their advertisement", len(heard))
			}
			if timeouts == 0 || overheard == 0 {
				t.Errorf("%d Interest timeouts, %d overheard packets: a release or buffer site went unexercised", timeouts, overheard)
			}
		})
	}
}
