package core

import (
	"bytes"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
)

// sameArray reports whether a and b share their backing array's first byte.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// interestWireFixture is a running peer with a collection it fetches (cs) and
// one whose metadata it is still retrieving (pending), on a medium whose
// wire pool holds exactly one wire. ear, when asked for, is a bare radio in
// range that records every frame it hears.
type interestWireFixture struct {
	net         *testNet
	p           *Peer
	cs, pending *collectionState
	wire        []byte   // the pool's one wire
	heard       [][]byte // what ear heard, copied
	sentInWire  bool     // every frame ear heard was in wire
}

func newInterestWireFixture(t *testing.T, res *metadata.BuildResult, ear bool) *interestWireFixture {
	t.Helper()
	f := &interestWireFixture{net: newTestNet(53, 100), sentInWire: true}
	f.p = f.net.peer(geo.Point{}, Config{Multihop: true})
	f.cs = newCollectionState(res.Manifest.Collection)
	f.cs.metaName, f.cs.manifest, f.cs.subscribed = res.Manifest.MetadataName(), res.Manifest, true
	f.p.initManifest(f.cs)
	f.p.collections[f.cs.uri] = f.cs
	f.pending = newCollectionState(ndn.ParseName("/coll-456"))
	f.pending.metaName = ndn.ParseName("/coll-456/metadata-file/00000000")
	f.p.collections[f.pending.uri] = f.pending
	if ear {
		f.net.medium.Attach(geo.Stationary{At: geo.Point{X: 10}}).SetHandler(func(fr phy.Frame) {
			f.heard = append(f.heard, bytes.Clone(fr.Payload))
			f.sentInWire = f.sentInWire && sameArray(fr.Payload, f.wire)
		})
	}
	// Prime the pool with one wire: a disabled radio's owned send hands it
	// straight back.
	off := f.net.medium.Attach(geo.Stationary{At: geo.Point{X: 1e6}})
	off.SetEnabled(false)
	f.wire = f.net.medium.Wire(512)
	f.net.medium.BroadcastOwned(off, f.wire)
	f.p.Start()
	f.p.beaconT.Stop() // the cases below send their own Interests
	f.p.sweepT.Stop()
	return f
}

// TestInterestWireReturnsOnceOnEveryExit is TestOwnedWireReturnsOnceOnEveryExit
// (phy) from the sender's side: every Interest a peer sends — a data or
// metadata Interest queued for its slot, a bitmap or discovery Interest, a
// forward — goes on the air in a wire from the medium's pool, and that wire
// is back in the pool exactly once however the send ends: dropped at its
// slot (packet held, metadata assembled, peer stopped), not sent (radio
// disabled), sent to nobody, or heard. A queued Interest that is dropped
// never takes a wire at all.
func TestInterestWireReturnsOnceOnEveryExit(t *testing.T) {
	t.Parallel()
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
	type send func(f *interestWireFixture)
	data := func(f *interestWireFixture) { f.p.sendDataInterest(f.cs, 3) }
	meta := func(f *interestWireFixture) { f.p.requestNextMetaSegment(f.pending) }
	bitmapInterest := func(f *interestWireFixture) { f.p.sendBitmapInterest(f.cs) }
	discovery := func(f *interestWireFixture) { f.p.sendDiscoveryInterest() }
	forward := func(f *interestWireFixture) {
		f.p.relay.Forward(&ndn.Interest{Name: ndn.ParseName("/elsewhere/report/1"), Nonce: 9})
	}
	then := func(s send, after func(f *interestWireFixture)) send {
		return func(f *interestWireFixture) { s(f); after(f) }
	}
	stop := func(f *interestWireFixture) { f.p.Stop() }
	deaf := func(f *interestWireFixture) { f.p.radio.SetEnabled(false) }
	for _, tc := range []struct {
		name string
		ear  bool
		send send
		sent uint64 // frames on the air
	}{
		{"data Interest, packet held at its slot", true, then(data, func(f *interestWireFixture) { f.cs.own.Set(3) }), 0},
		{"data Interest, peer stopped", true, then(data, stop), 0},
		{"metadata Interest, metadata assembled at its slot", true, then(meta, func(f *interestWireFixture) { f.pending.manifest = res.Manifest }), 0},
		{"metadata Interest, peer stopped", true, then(meta, stop), 0},
		{"bitmap Interest, peer stopped", true, then(bitmapInterest, stop), 0},
		{"forward, peer stopped", true, then(forward, stop), 0},
		{"data Interest, radio disabled", true, then(data, deaf), 0},
		{"discovery Interest, radio disabled", true, then(deaf, func(f *interestWireFixture) { discovery(f) }), 0},
		{"data Interest, nobody in range", false, data, 1},
		{"bitmap Interest, nobody in range", false, bitmapInterest, 1},
		{"data Interest, heard", true, data, 1},
		{"metadata Interest, heard", true, meta, 1},
		{"bitmap Interest, heard", true, bitmapInterest, 1},
		{"discovery Interest, heard", true, discovery, 1},
		{"forward, heard", true, forward, 1},
	} {
		f := newInterestWireFixture(t, res, tc.ear)
		tc.send(f)
		f.net.k.Run(50 * time.Millisecond)
		m := f.net.medium
		if tx := m.Stats().Transmissions; tx != tc.sent {
			t.Errorf("%s: %d frames on the air, want %d", tc.name, tx, tc.sent)
		}
		if tc.ear && len(f.heard) != int(tc.sent) {
			t.Errorf("%s: heard %d frames, want %d", tc.name, len(f.heard), tc.sent)
		}
		if !f.sentInWire {
			t.Errorf("%s: a frame went on the air outside the pool's wire", tc.name)
		}
		for _, w := range f.heard {
			if in := ndn.NewPacket(w).Interest(); in == nil {
				t.Errorf("%s: heard %x, not an Interest", tc.name, w)
			}
		}
		if first, second := m.Wire(1), m.Wire(1); !sameArray(first, f.wire) || sameArray(second, f.wire) {
			t.Errorf("%s: after the send the pool handed out the wire %v, then again %v; want it back exactly once",
				tc.name, sameArray(first, f.wire), sameArray(second, f.wire))
		}
	}
}

// TestInterestSendDoesNotAllocate: once the medium's pools and the peer's
// records are warm, sending an Interest — a discovery beacon, a bitmap
// Interest, a data Interest through its slot — and having it heard costs no
// object: each encodes into a wire from the medium's pool.
func TestInterestSendDoesNotAllocate(t *testing.T) {
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
	f := newInterestWireFixture(t, res, false)
	heard := 0
	f.net.medium.Attach(geo.Stationary{At: geo.Point{X: 10}}).SetHandler(func(fr phy.Frame) {
		if fr.Packet().Interest() != nil {
			heard++
		}
	})
	once := func() {
		f.p.sendDiscoveryInterest()
		f.p.sendBitmapInterest(f.cs)
		f.p.sendDataInterest(f.cs, 3)
		f.net.k.Run(f.net.k.Now() + 50*time.Millisecond)
		f.p.releaseInflight(f.cs.inflight[3])
	}
	for range 200 {
		once()
	}
	if avg := testing.AllocsPerRun(200, once); avg != 0 {
		t.Errorf("a warm Interest send allocates %.2f objects, want 0", avg)
	}
	// One receiver and no loss: every frame is heard unless the peer's own
	// jittered sends overlapped it.
	if st := f.net.medium.Stats(); st.Transmissions != 3*401 || st.Deliveries+st.Collisions != st.Transmissions ||
		uint64(heard) != st.Deliveries || heard == 0 {
		t.Fatalf("heard %d Interests, medium %+v; want all %d sent, each heard or collided", heard, st, 3*401)
	}
}
