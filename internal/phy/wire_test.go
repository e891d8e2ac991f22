package phy

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/sim"
)

// TestDeliveredFrameSharedDecode pins the decode-once contract of the wire
// path end to end, TestLookupPathsDoNotAllocate-style: when one broadcast
// reaches k receivers, all k frames expose the *same* decoded packet object
// (zero re-parses per additional receiver), repeat accesses to the memoized
// parse allocate nothing, and the decoded Data's Encode returns the very
// frame bytes that were on the air (zero re-encode on relay).
//
// Serial on purpose: AllocsPerRun reads the process-wide counter.
func TestDeliveredFrameSharedDecode(t *testing.T) {
	const receivers = 8
	k := sim.NewKernel(5)
	m := NewMedium(k, Config{Range: 50}) // no loss, single broadcast: no collisions

	src := &ndn.Data{Name: ndn.ParseName("/coll/file/0"), Content: []byte("shared-decode")}
	src.SignDigest()
	wire := src.Encode()

	sender := m.Attach(geo.Stationary{})
	var got []*ndn.Data
	var pkts []*ndn.Packet
	for i := 0; i < receivers; i++ {
		rx := m.Attach(geo.Stationary{At: geo.Point{X: float64(i + 1)}})
		rx.SetHandler(func(f Frame) {
			pkt := f.Packet()
			pkts = append(pkts, pkt)
			got = append(got, pkt.Data())
		})
	}

	m.Broadcast(sender, wire)
	k.Run(time.Second)

	if len(got) != receivers {
		t.Fatalf("delivered to %d radios, want %d", len(got), receivers)
	}
	first := got[0]
	if first == nil {
		t.Fatal("frame did not decode as Data")
	}
	if string(first.Content) != "shared-decode" {
		t.Fatalf("decoded content = %q", first.Content)
	}
	for i, d := range got {
		if d != first {
			t.Errorf("receiver %d re-parsed the frame: got a distinct *Data", i)
		}
		if pkts[i] != pkts[0] {
			t.Errorf("receiver %d saw a distinct Packet view", i)
		}
	}

	// An additional receiver of the same broadcast is a memo lookup: no
	// allocations, no new objects.
	pkt := pkts[0]
	if allocs := testing.AllocsPerRun(200, func() {
		if pkt.Data() != first {
			t.Fatal("memoized parse returned a new object")
		}
	}); allocs != 0 {
		t.Errorf("extra receiver costs %.1f allocs, want 0", allocs)
	}

	// Relaying the received Data reuses the on-air frame bytes verbatim —
	// same backing array, not just equal content.
	re := first.Encode()
	if len(re) != len(wire) || &re[0] != &wire[0] {
		t.Error("Encode of a received Data re-serialized instead of reusing the frame bytes")
	}
}

// TestBroadcastDataSharesTheSendersRecord pins the stored-Data path: a
// frame sent by BroadcastData or BroadcastDataAfter hands every receiver the
// sender's own *ndn.Data — the same pointer, not an equal decode — over the
// sender's own wire bytes, and reads as no Interest.
func TestBroadcastDataSharesTheSendersRecord(t *testing.T) {
	t.Parallel()
	const receivers = 4
	k := sim.NewKernel(5)
	m := NewMedium(k, Config{Range: 50})
	sender := m.Attach(geo.Stationary{})
	d := &ndn.Data{Name: ndn.ParseName("/coll/file/0"), Content: []byte("stored")}
	d.SignDigest()
	wire := d.Encode()

	var got []*ndn.Data
	for i := 0; i < receivers; i++ {
		rx := m.Attach(geo.Stationary{At: geo.Point{X: float64(i + 1)}})
		rx.SetHandler(func(f Frame) {
			pkt := f.Packet()
			if pkt.Interest() != nil {
				t.Errorf("radio %d: a Data frame read as an Interest", rx.ID())
			}
			if !sameArray(f.Payload, wire) || len(f.Payload) != len(wire) {
				t.Errorf("radio %d: the frame does not carry the sender's wire", rx.ID())
			}
			got = append(got, pkt.Data())
		})
	}
	live, sent := true, uint64(0)
	m.BroadcastData(sender, d)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	m.BroadcastDataAfter(time.Millisecond, sender, d, &sent, &live)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2*receivers || sent != 1 {
		t.Fatalf("%d deliveries and %d counted sends, want %d and 1", len(got), sent, 2*receivers)
	}
	for i, rd := range got {
		if rd != d {
			t.Errorf("delivery %d handed over %p, want the sender's record %p", i, rd, d)
		}
	}
}

// TestFrameOutsideMediumStillParses covers the zero-value Frame fallback:
// frames built directly (tests, future point-to-point links) parse per call
// instead of sharing a memo, but behave identically.
func TestFrameOutsideMediumStillParses(t *testing.T) {
	t.Parallel()
	in := &ndn.Interest{Name: ndn.ParseName("/x"), Nonce: 9}
	f := Frame{From: 1, Payload: in.Encode()}
	p1 := f.Packet()
	if p1.Interest() == nil || p1.Interest().Nonce != 9 {
		t.Fatalf("fallback parse failed: %+v, err %v", p1.Interest(), p1.Err())
	}
	if bad := (Frame{From: 1, Payload: []byte{0x99}}).Packet(); bad.Interest() != nil || bad.Data() != nil || bad.Err() == nil {
		t.Error("malformed fallback frame did not report an error")
	}
}
