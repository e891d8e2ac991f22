package core

import (
	"slices"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/phy"
)

// TestStopDrainsPending is the Stop-cancels-everything regression test: a
// peer stopped mid-fetch (reply timers armed, metadata retries pending,
// Interests in flight) must leave nothing armed in the kernel. Any timer
// Stop misses keeps the event queue alive forever — exactly the leak the
// fault engine's Crash path cannot afford.
func TestStopDrainsPending(t *testing.T) {
	t.Parallel()
	net := newTestNet(29, 100)
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)

	producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	downloader := net.peer(geo.Point{X: 30, Y: 0}, Config{})
	downloader.Subscribe(ndn.ParseName("/coll-123"))
	producer.Start()
	downloader.Start()

	// Deep enough into the exchange that discovery replies, metadata
	// retries, and data Interests are all armed somewhere.
	net.k.Run(5 * time.Second)
	producer.Stop()
	downloader.Stop()

	// Already-queued one-shot sends may still fire (they no-op on !running);
	// after they drain, nothing may remain armed.
	net.k.Run(2 * time.Minute)
	if got := net.k.Pending(); got != 0 {
		t.Fatalf("%d events still pending after Stop drained", got)
	}
}

// TestStopDropsQueuedSends: each send a peer queues for its transmission slot
// rides a pooled record — a data Interest, a metadata Interest, a bitmap
// Interest, a discovery reply and a relay rebroadcast. Stopped while all five
// are queued, the peer puts nothing on the air and leaves nothing in the
// kernel. Started again, the records it reuses check and send what they are
// handed now, never the (cs, idx) they held before.
func TestStopDropsQueuedSends(t *testing.T) {
	t.Parallel()
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
	setup := func() (*testNet, *Peer, *collectionState, *[]string) {
		net := newTestNet(47, 100)
		p := net.peer(geo.Point{}, Config{Multihop: true})
		cs := newCollectionState(res.Manifest.Collection)
		cs.metaName, cs.manifest, cs.subscribed = res.Manifest.MetadataName(), res.Manifest, true
		p.initManifest(cs)
		p.collections[cs.uri] = cs
		pending := newCollectionState(ndn.ParseName("/coll-456"))
		pending.metaName = ndn.ParseName("/coll-456/metadata-file/00000000")
		p.collections[pending.uri] = pending
		heard := new([]string)
		ear := net.medium.Attach(geo.Stationary{At: geo.Point{X: 10}})
		ear.SetHandler(func(f phy.Frame) {
			if in := f.Packet().Interest(); in != nil && !isProtocolName(in.Name) {
				*heard = append(*heard, in.NameKey())
			}
		})
		p.Start()
		p.sendDataInterest(cs, 3)
		p.requestNextMetaSegment(pending)
		p.sendBitmapInterest(cs)
		p.maybeSendDiscoveryReply()
		p.relay.Forward(&ndn.Interest{Name: ndn.ParseName("/elsewhere/report/1"), Nonce: 9})
		return net, p, cs, heard
	}
	queued := func(s Stats) []uint64 {
		return []uint64{s.DataInterestsSent, s.MetaInterestsSent, s.BitmapInterestsSent, s.DiscoveryDataSent, s.InterestsForwarded}
	}

	// Left running, each of the five goes on the air once, inside the
	// 20 ms window.
	net, p, _, _ := setup()
	net.k.Run(50 * time.Millisecond)
	if got := queued(p.Stats()); !slices.Equal(got, []uint64{1, 1, 1, 1, 1}) {
		t.Fatalf("running peer sent %v of the five queued sends, want one each", got)
	}

	net, p, cs, heard := setup()
	p.Stop()
	net.k.Run(time.Minute)
	if tx := net.medium.Stats().Transmissions; tx != 0 {
		t.Fatalf("stopped peer put %d frames on the air", tx)
	}
	if got := net.k.Pending(); got != 0 {
		t.Fatalf("%d events still pending after Stop drained", got)
	}

	p.Start()
	p.sendDataInterest(cs, 5)
	p.sendDataInterest(cs, 6)
	cs.own.Set(5) // packet 5 arrives within its Interest's slot
	net.k.Run(net.k.Now() + 50*time.Millisecond)
	want, _ := res.Manifest.AppendPacketName(nil, 6)
	if !slices.Equal(*heard, []string{want.String()}) || p.Stats().DataInterestsSent != 1 {
		t.Fatalf("restarted peer sent %q (%d data Interests), want only %s",
			*heard, p.Stats().DataInterestsSent, want)
	}
}

// TestCrashSilences: a crashed peer transmits nothing and hears nothing.
func TestCrashSilences(t *testing.T) {
	t.Parallel()
	net := newTestNet(31, 100)
	a := net.peer(geo.Point{}, Config{})
	b := net.peer(geo.Point{X: 20}, Config{})
	a.Start()
	b.Start()
	net.k.Run(10 * time.Second)

	a.Crash()
	before := a.Stats()
	net.k.Run(2 * time.Minute)
	// No counter moves: no beacons of its own, and no replies to b's
	// beacons (its radio hears nothing while crashed).
	if got := a.Stats(); got != before {
		t.Fatalf("crashed peer kept transmitting: %+v -> %+v", before, got)
	}
}

// TestCrashRestartRecompletes drives the full lifecycle the chaos scenarios
// rely on: a downloader that finishes, crashes (losing its volatile CS, PIT,
// and FIB), and cold-restarts must re-discover the producer through its
// retained subscription and re-complete the download.
func TestCrashRestartRecompletes(t *testing.T) {
	t.Parallel()
	net := newTestNet(37, 100)
	res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
	coll := res.Manifest.Collection

	producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
	if err := producer.Publish(res); err != nil {
		t.Fatal(err)
	}
	downloader := net.peer(geo.Point{X: 30, Y: 0}, Config{})
	downloader.Subscribe(ndn.ParseName("/coll-123"))
	producer.Start()
	downloader.Start()

	if ok := net.k.RunUntil(5*time.Minute, func() bool {
		done, _ := downloader.Done(coll)
		return done
	}); !ok {
		t.Fatal("first download incomplete")
	}

	downloader.Crash()
	crashedAt := net.k.Now()
	net.k.Run(30 * time.Second)
	downloader.Restart()
	if done, _ := downloader.Done(coll); done {
		t.Fatal("cold restart kept completed state: tables must be volatile")
	}

	if ok := net.k.RunUntil(crashedAt+10*time.Minute, func() bool {
		done, _ := downloader.Done(coll)
		return done
	}); !ok {
		have, total := downloader.Progress(coll)
		t.Fatalf("no re-completion after restart: %d/%d packets", have, total)
	}
	if done, at := downloader.Done(coll); !done || at <= crashedAt {
		t.Fatalf("re-completion Done = %v at %v (crash was %v)", done, at, crashedAt)
	}

	// The producer's published packets survive its own crash/restart cycle
	// (durable origin storage), only the session caches reset.
	producer.Crash()
	producer.Restart()
	for i := 0; i < res.Manifest.TotalPackets(); i++ {
		if !producer.find(coll).own.Test(i) {
			t.Fatalf("producer lost published packet %d across restart", i)
		}
	}
}

// TestRestartWhileRunningIsANoOp: Restart on a live peer must not wipe its
// state (it guards on running, mirroring Start).
func TestRestartWhileRunningIsANoOp(t *testing.T) {
	t.Parallel()
	net := newTestNet(41, 100)
	res := testCollection(t, 1, 4, metadata.FormatPacketDigest)
	p := net.peer(geo.Point{}, Config{})
	if err := p.Publish(res); err != nil {
		t.Fatal(err)
	}
	p.Start()
	net.k.Run(time.Second)
	p.Restart()
	if !p.find(res.Manifest.Collection).own.Test(0) {
		t.Fatal("Restart on a running peer dropped state")
	}
}

func TestCrashRestartDeterministic(t *testing.T) {
	t.Parallel()
	run := func() (time.Duration, uint64) {
		net := newTestNet(43, 100)
		res := testCollection(t, 2, 10, metadata.FormatPacketDigest)
		coll := res.Manifest.Collection
		producer := net.peer(geo.Point{X: 0, Y: 0}, Config{})
		if err := producer.Publish(res); err != nil {
			t.Fatal(err)
		}
		dl := net.peer(geo.Point{X: 30, Y: 0}, Config{})
		dl.Subscribe(ndn.ParseName("/coll-123"))
		producer.Start()
		dl.Start()
		net.k.ScheduleFunc(500*time.Millisecond, dl.Crash)
		net.k.ScheduleFunc(20*time.Second, dl.Restart)
		net.k.RunUntil(5*time.Minute, func() bool {
			done, _ := dl.Done(coll)
			return done
		})
		_, at := dl.Done(coll)
		return at, net.medium.Stats().Transmissions
	}
	at1, tx1 := run()
	at2, tx2 := run()
	if at1 != at2 || tx1 != tx2 {
		t.Fatalf("crash/restart trial diverged: (%v, %d) vs (%v, %d)", at1, tx1, at2, tx2)
	}
	if at1 <= 20*time.Second {
		t.Fatalf("completion at %v predates the restart", at1)
	}
}
