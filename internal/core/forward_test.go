package core

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
	"dapes/internal/phy"
)

// TestIntermediateRelaysDataForPrefixInterest: three radios in a line, the
// ends out of each other's range. The requester asks for /third/party/obj
// with CanBePrefix, the DAPES-aware intermediate forwards it, and the
// responder answers /third/party/obj/v1. The intermediate used to key the
// forward by the Interest's name and look the Data up by its own, so the
// answer was never relayed and the name was later suppressed as unanswered.
func TestIntermediateRelaysDataForPrefixInterest(t *testing.T) {
	t.Parallel()
	net := newTestNet(41, 50)
	ttl := multihop.SuppressTTL
	mid := net.peer(geo.Point{X: 40}, Config{Multihop: true, ForwardProb: 1})
	mid.Start()

	asked, answer := ndn.ParseName("/third/party/obj"), ndn.ParseName("/third/party/obj/v1")
	requester := net.medium.Attach(geo.Stationary{At: geo.Point{X: 0}})
	heard := 0
	requester.SetHandler(func(f phy.Frame) {
		if d := f.Packet().Data(); d != nil && d.Name.Equal(answer) {
			heard++
		}
	})
	responder := net.medium.Attach(geo.Stationary{At: geo.Point{X: 80}})
	responder.SetHandler(func(f phy.Frame) {
		if in := f.Packet().Interest(); in != nil && in.Name.Equal(asked) {
			d := &ndn.Data{Name: answer, Content: []byte("v1")}
			d.SignDigest()
			net.medium.Broadcast(responder, d.Encode())
		}
	})
	ask := func(at time.Duration, nonce uint32) {
		in := &ndn.Interest{Name: asked, CanBePrefix: true, Nonce: nonce}
		net.k.ScheduleFuncAt(at, func() { net.medium.Broadcast(requester, in.Encode()) })
	}

	ask(time.Second, 1)
	net.k.Run(2 * time.Second)
	if st := mid.Stats(); heard != 1 || st.InterestsForwarded != 1 || st.DataForwarded != 1 || st.ForwardedAnswered != 1 {
		t.Fatalf("requester heard the Data %d times, intermediate %+v; want 1 heard, 1 forwarded, 1 relayed, 1 answered",
			heard, st.Counters)
	}

	// Inside [TTL, 2·TTL) after the forward an unanswered name is suppressed;
	// this one was answered.
	ask(time.Second+ttl+ttl/2, 2)
	net.k.Run(time.Second + 2*ttl)
	if st := mid.Stats(); st.InterestsSuppressed != 0 || st.InterestsForwarded != 2 || heard != 2 {
		t.Fatalf("re-ask after an answered forward: heard %d, intermediate %+v; want it forwarded and answered again",
			heard, st.Counters)
	}
}

// TestReplyChurnDoesNotAllocate: a reply scheduled and then cancelled
// because another holder answered first — the common fate of a reply on a
// dense medium — reuses its record and timer.
func TestReplyChurnDoesNotAllocate(t *testing.T) {
	net := newTestNet(43, 50)
	res := testCollection(t, 1, 4, metadata.FormatPacketDigest)
	p := net.peer(geo.Point{}, Config{})
	if err := p.Publish(res); err != nil {
		t.Fatal(err)
	}
	d := res.Packets[0]
	in := &ndn.Interest{Name: d.Name, Nonce: 7}
	const from = 99
	allocs := testing.AllocsPerRun(100, func() {
		p.handleInterest(from, in)
		if net.k.Pending() != 1 {
			t.Fatal("no reply pending after an Interest for a held packet")
		}
		p.relay.CancelReply(d) // what the relay does on hearing Data
		p.handleData(from, d)
	})
	if allocs != 0 {
		t.Errorf("reply churn allocates %v objects per round", allocs)
	}
	if net.k.Pending() != 0 || p.Stats().DataSent != 0 {
		t.Errorf("%d kernel events pending, %d Data sent after the last overheard answer", net.k.Pending(), p.Stats().DataSent)
	}
}
