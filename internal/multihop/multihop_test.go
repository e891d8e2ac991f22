// The end-to-end tests build core peers, and core holds a multihop.Relay:
// they live outside the package so the import does not close a cycle.
package multihop_test

import (
	"bytes"
	"testing"
	"time"

	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

func buildCollection(t *testing.T, pkts int) *metadata.BuildResult {
	t.Helper()
	res, err := metadata.BuildCollection(
		ndn.ParseName("/mh-coll"),
		[]metadata.File{{Name: "f", Content: bytes.Repeat([]byte{7}, pkts*100)}},
		100, metadata.FormatPacketDigest, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPureForwarderBridgesTwoHops(t *testing.T) {
	t.Parallel()
	// Producer at x=0, pure forwarder at x=40, downloader at x=80; range 50.
	// The downloader can only reach the producer through the forwarder.
	k := sim.NewKernel(21)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	res := buildCollection(t, 10)

	cfg := core.Config{Multihop: true, ForwardProb: 1.0}
	producer := core.NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 0}}, nil, nil, cfg)
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	fwd := multihop.NewPureForwarder(k, medium, geo.Stationary{At: geo.Point{X: 40}}, multihop.Config{ForwardProb: 1.0})
	dl := core.NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 80}}, nil, nil, cfg)
	dl.Subscribe(res.Manifest.Collection)

	producer.Start()
	fwd.Start()
	dl.Start()

	ok := k.RunUntil(20*time.Minute, func() bool {
		done, _ := dl.Done(res.Manifest.Collection)
		return done
	})
	if !ok {
		have, total := dl.Progress(res.Manifest.Collection)
		t.Fatalf("two-hop download incomplete: %d/%d (fwd stats %+v)", have, total, fwd.Stats())
	}
	st := fwd.Stats()
	if st.InterestsForwarded == 0 {
		t.Fatal("forwarder never forwarded an interest")
	}
	if st.DataForwarded == 0 {
		t.Fatal("forwarder never relayed data back")
	}
	if st.ForwardedAnswered == 0 {
		t.Fatal("no forwarded interest was answered")
	}
}

func TestPureForwarderServesFromCache(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(22)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	fwd := multihop.NewPureForwarder(k, medium, geo.Stationary{At: geo.Point{X: 0}}, multihop.Config{ForwardProb: 1.0})
	fwd.Start()

	// A neighbor radio to overhear from and query with.
	r := medium.Attach(geo.Stationary{At: geo.Point{X: 10}})
	var got []*ndn.Data
	r.SetHandler(func(f phy.Frame) {
		if len(f.Payload) > 0 && f.Payload[0] == 0x06 {
			if d := ndn.NewPacket(f.Payload).Data(); d != nil {
				got = append(got, d)
			}
		}
	})

	d := &ndn.Data{Name: ndn.ParseName("/x/0"), Content: []byte("cached")}
	d.SignDigest()
	// Broadcast the data (unsolicited); the forwarder must cache it.
	k.Schedule(time.Second, func() { medium.Broadcast(r, d.Encode()) })
	// Later, ask for it; the forwarder must answer from its Content Store.
	in := &ndn.Interest{Name: ndn.ParseName("/x/0"), Nonce: 77}
	k.Schedule(2*time.Second, func() { medium.Broadcast(r, in.Encode()) })
	k.Run(5 * time.Second)

	if len(got) != 1 || string(got[0].Content) != "cached" {
		t.Fatalf("cache reply = %v", got)
	}
	if fwd.Stats().CsReplies != 1 {
		t.Fatalf("CsReplies = %d", fwd.Stats().CsReplies)
	}
}

func TestSuppressionTimerBlocksRepeatedForwards(t *testing.T) {
	t.Parallel()
	// No producer exists, so the forwarded Interest is never answered; the
	// suppression timer must block subsequent forwards of the same name.
	k := sim.NewKernel(23)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	fwd := multihop.NewPureForwarder(k, medium, geo.Stationary{At: geo.Point{X: 0}},
		multihop.Config{ForwardProb: 1.0})
	fwd.Start()

	r := medium.Attach(geo.Stationary{At: geo.Point{X: 10}})
	send := func(at time.Duration, nonce uint32) {
		in := &ndn.Interest{Name: ndn.ParseName("/never/0"), Nonce: nonce}
		k.ScheduleAt(at, func() { medium.Broadcast(r, in.Encode()) })
	}
	send(0, 1)
	send(3*time.Second, 2)  // within suppression window -> suppressed
	send(30*time.Second, 3) // long after expiry (sweep pruned) -> forwarded
	k.Run(40 * time.Second)

	st := fwd.Stats()
	if st.InterestsForwarded != 2 {
		t.Fatalf("forwarded = %d, want 2 (suppression failed): %+v", st.InterestsForwarded, st)
	}
	if st.InterestsSuppressed == 0 {
		t.Fatal("no suppression recorded")
	}
}

func TestProbabilisticForwardingRespectsProbability(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(24)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	fwd := multihop.NewPureForwarder(k, medium, geo.Stationary{At: geo.Point{X: 0}},
		multihop.Config{ForwardProb: 0.2})
	fwd.Start()
	r := medium.Attach(geo.Stationary{At: geo.Point{X: 10}})

	const n = 400
	for i := 0; i < n; i++ {
		// Distinct names so suppression state does not interfere.
		in := &ndn.Interest{Name: ndn.ParseName("/p").AppendSeq(i), Nonce: uint32(i + 1)}
		k.ScheduleAt(time.Duration(i)*50*time.Millisecond, func() { medium.Broadcast(r, in.Encode()) })
	}
	k.Run(time.Duration(n)*50*time.Millisecond + time.Second)

	st := fwd.Stats()
	frac := float64(st.InterestsForwarded) / float64(n)
	if frac < 0.1 || frac > 0.35 {
		t.Fatalf("forward fraction = %.2f, want ≈0.2", frac)
	}
}

func TestDapesIntermediateForwardsForSameCollection(t *testing.T) {
	t.Parallel()
	// Section V-B: K (a DAPES peer downloading the same collection) sits
	// between A and J and forwards only Interests it speculates will bring
	// data back. Here the intermediate has full knowledge via bitmaps.
	k := sim.NewKernel(26)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	res := buildCollection(t, 8)

	cfg := core.Config{Multihop: true, ForwardProb: 0.0} // knowledge-driven only
	producer := core.NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 0}}, nil, nil, cfg)
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	mid := core.NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 40}}, nil, nil, cfg)
	mid.Subscribe(res.Manifest.Collection)
	far := core.NewPeer(k, medium, geo.Stationary{At: geo.Point{X: 80}}, nil, nil, cfg)
	far.Subscribe(res.Manifest.Collection)

	producer.Start()
	mid.Start()
	far.Start()

	ok := k.RunUntil(30*time.Minute, func() bool {
		a, _ := mid.Done(res.Manifest.Collection)
		b, _ := far.Done(res.Manifest.Collection)
		return a && b
	})
	if !ok {
		mh, mt := mid.Progress(res.Manifest.Collection)
		fh, ft := far.Progress(res.Manifest.Collection)
		t.Fatalf("incomplete: mid %d/%d far %d/%d", mh, mt, fh, ft)
	}
	if mid.ForwardingAccuracy() == 0 && mid.Stats().InterestsForwarded > 0 {
		t.Fatal("intermediate forwarded but nothing answered")
	}
}
