package transport

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/routing"
	"dapes/internal/sim"
)

func dsdvPair(k *sim.Kernel, lossRate float64) (*routing.DSDV, *routing.DSDV) {
	medium := phy.NewMedium(k, phy.Config{Range: 50, LossRate: lossRate})
	a := routing.NewDSDV(k, medium, geo.Stationary{})
	b := routing.NewDSDV(k, medium, geo.Stationary{At: geo.Point{X: 20}})
	a.Start()
	b.Start()
	return a, b
}

func TestReliableDelivery(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(61)
	a, b := dsdvPair(k, 0)
	ra := NewReliable(k, a)
	rb := NewReliable(k, b)

	var got []string
	rb.SetReceive(func(src int, payload []byte) { got = append(got, string(payload)) })
	var acked bool
	k.Run(30 * time.Second) // converge routes
	k.Schedule(0, func() { ra.Send(b.ID(), []byte("hello"), func(ok bool) { acked = ok }) })
	k.Run(40 * time.Second)

	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivery = %v", got)
	}
	if !acked {
		t.Fatal("ack callback not fired")
	}
	if len(ra.pending) != 0 {
		t.Fatalf("pending = %d", len(ra.pending))
	}
}

func TestReliableRetransmitsUnderLoss(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(62)
	a, b := dsdvPair(k, 0.4)
	ra := NewReliable(k, a)
	ra.retryLimit = 10 // at 40% loss each way, maxRetries loses one message in 20
	rb := NewReliable(k, b)

	delivered := 0
	rb.SetReceive(func(int, []byte) { delivered++ })
	k.Run(60 * time.Second)
	const n = 20
	for i := 0; i < n; i++ {
		k.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			ra.Send(b.ID(), []byte("m"), nil)
		})
	}
	k.Run(3 * time.Minute)

	if delivered != n {
		t.Fatalf("delivered %d of %d under 40%% loss", delivered, n)
	}
	if ra.Retransmissions == 0 {
		t.Fatal("no retransmissions despite loss")
	}
}

func TestReliableDuplicateSuppression(t *testing.T) {
	t.Parallel()
	// With heavy ack loss the sender retransmits, but the receiver must
	// deliver each message exactly once.
	k := sim.NewKernel(63)
	a, b := dsdvPair(k, 0.4)
	ra := NewReliable(k, a)
	rb := NewReliable(k, b)
	delivered := 0
	rb.SetReceive(func(int, []byte) { delivered++ })
	k.Run(60 * time.Second)
	k.Schedule(0, func() { ra.Send(b.ID(), []byte("once"), nil) })
	k.Run(2 * time.Minute)
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
}

func TestReliableFailureAfterMaxRetries(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(64)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := routing.NewDSDV(k, medium, geo.Stationary{})
	a.Start()
	ra := NewReliable(k, a)

	var failed bool
	k.Schedule(0, func() {
		ra.Send(999, []byte("void"), func(ok bool) { failed = !ok })
	})
	k.Run(time.Minute)
	if !failed {
		t.Fatal("unreachable destination did not fail")
	}
	if ra.Failures != 1 {
		t.Fatalf("Failures = %d", ra.Failures)
	}
}

func TestDatagramBestEffort(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(65)
	a, b := dsdvPair(k, 0)
	da := NewDatagram(a)
	db := NewDatagram(b)
	got := 0
	db.SetReceive(func(int, []byte) { got++ })
	_ = da
	k.Run(30 * time.Second)
	k.Schedule(0, func() {
		if !da.Send(b.ID(), []byte("dgram")) {
			t.Error("send refused with converged route")
		}
	})
	k.Run(40 * time.Second)
	if got != 1 {
		t.Fatalf("datagrams received = %d", got)
	}
}

func TestReliableOverDSRInvalidatesRoutesOnFailure(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(66)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := routing.NewDSR(k, medium, geo.Stationary{})
	// b departs after 5 s, breaking the cached route.
	b := routing.NewDSR(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 20}},
		{At: 5 * time.Second, Pos: geo.Point{X: 20}},
		{At: 6 * time.Second, Pos: geo.Point{X: 2000}},
	}))
	a.Start()
	b.Start()
	ra := NewReliable(k, a)
	NewReliable(k, b)

	k.Schedule(time.Second, func() { ra.Send(b.ID(), []byte("pre"), nil) })
	k.Run(10 * time.Second)
	if !a.HasRoute(b.ID()) {
		t.Fatal("route not established while in range")
	}
	var failed bool
	k.Schedule(0, func() { ra.Send(b.ID(), []byte("post"), func(ok bool) { failed = !ok }) })
	k.Run(time.Minute)
	if !failed {
		t.Fatal("send to departed node did not fail")
	}
	if a.HasRoute(b.ID()) {
		t.Fatal("broken route not invalidated")
	}
}

// TestSeenBoundedOverLongTrials is the regression test for unbounded growth
// of the per-source duplicate-suppression map, mirroring the phy txWindows
// fix from PR 2: a receiver that handles 10k+ messages from one source must
// compact IDs whose retransmission window has lapsed instead of remembering
// every message ever delivered — while still delivering each message exactly
// once.
func TestSeenBoundedOverLongTrials(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(67)
	a, b := dsdvPair(k, 0)
	ra := NewReliable(k, a)
	rb := NewReliable(k, b)

	delivered := 0
	rb.SetReceive(func(int, []byte) { delivered++ })
	k.Run(30 * time.Second) // converge routes

	// One message per 100 ms: about 280 IDs live within seenTTL.
	const n = 10000
	const gap = 100 * time.Millisecond
	maxSeen := 0
	for i := 0; i < n; i++ {
		k.Schedule(time.Duration(i)*gap, func() {
			ra.Send(b.ID(), []byte("m"), nil)
			if s := rb.seen[a.ID()]; s != nil && len(s.ids) > maxSeen {
				maxSeen = len(s.ids)
			}
		})
	}
	k.Run(k.Now() + n*gap + 3*time.Minute)

	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if maxSeen == 0 {
		t.Fatal("seen map never populated; test is vacuous")
	}
	// At this workload the live window (~msg rate x seenTTL) is far below
	// the compaction threshold, so the sweep's one-per-TTL rate limit never
	// delays it and the set stays under the threshold throughout.
	if l := len(rb.seen[a.ID()].ids); l > seenCompactLen {
		t.Errorf("seen holds %d IDs after %d messages, want <= %d", l, n, seenCompactLen)
	}
	if maxSeen > seenCompactLen {
		t.Errorf("seen peaked at %d IDs, want <= %d", maxSeen, seenCompactLen)
	}
}

// TestSeenCompactionKeepsLiveWindow pins the safety side of the compaction:
// an ID inside the retransmission window survives a sweep (a late duplicate
// must still be suppressed), while an ID beyond it is dropped.
func TestSeenCompactionKeepsLiveWindow(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(68)
	a, _ := dsdvPair(k, 0)
	r := NewReliable(k, a)

	set := map[uint32]time.Duration{
		1: 0,           // ancient: must be dropped
		2: seenTTL / 2, // inside the window: must survive
	}
	r.compactSeen(set, seenTTL+time.Millisecond)
	if _, ok := set[1]; ok {
		t.Error("expired ID survived compaction")
	}
	if _, ok := set[2]; !ok {
		t.Error("live ID dropped by compaction; late duplicates would re-deliver")
	}
}

// TestReliableOnFail pins the abandoned-message report the fetch layers
// rebuild on: when a message exhausts MaxRetries, OnFail fires with the
// message ID and destination BEFORE the message's own onDone(false), so a
// handler can invalidate the dead peer before the sender's completion logic
// re-plans.
func TestReliableOnFail(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(67)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := routing.NewDSDV(k, medium, geo.Stationary{})
	a.Start()
	ra := NewReliable(k, a)

	var order []string
	ra.SetOnFail(func(id uint32, dst int) {
		if dst != 999 {
			t.Errorf("OnFail dst = %d, want 999", dst)
		}
		order = append(order, "onfail")
	})
	k.Schedule(0, func() {
		ra.Send(999, []byte("void"), func(ok bool) {
			if ok {
				t.Error("unreachable destination acked")
			}
			order = append(order, "ondone")
		})
	})
	k.Run(time.Minute)

	if len(order) != 2 || order[0] != "onfail" || order[1] != "ondone" {
		t.Fatalf("callback order = %v, want [onfail ondone]", order)
	}
	if ra.Failures != 1 {
		t.Fatalf("Failures = %d", ra.Failures)
	}
}
