package phy

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

func newTestMedium(t *testing.T, cfg Config) (*sim.Kernel, *Medium) {
	t.Helper()
	k := sim.NewKernel(1)
	return k, NewMedium(k, cfg)
}

func TestBroadcastDeliversInRange(t *testing.T) {
	t.Parallel()
	k, m := newTestMedium(t, Config{Range: 50})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	b := m.Attach(geo.Stationary{At: geo.Point{X: 30, Y: 0}})
	c := m.Attach(geo.Stationary{At: geo.Point{X: 100, Y: 0}})

	var got []int
	b.SetHandler(func(f Frame) { got = append(got, f.From) })
	c.SetHandler(func(f Frame) { t.Error("out-of-range radio received frame") })

	k.ScheduleFunc(0, func() { m.Broadcast(a, []byte("hello")) })
	if err := k.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(got) != 1 || got[0] != a.ID() {
		t.Fatalf("b received %v, want [a]", got)
	}
	st := m.Stats()
	if st.Transmissions != 1 || st.Deliveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSenderDoesNotHearItself(t *testing.T) {
	t.Parallel()
	k, m := newTestMedium(t, Config{Range: 50})
	a := m.Attach(geo.Stationary{At: geo.Point{}})
	a.SetHandler(func(Frame) { t.Error("sender received own frame") })
	k.ScheduleFunc(0, func() { m.Broadcast(a, []byte("x")) })
	k.Run(0)
}

func TestTxDurationScalesWithSize(t *testing.T) {
	t.Parallel()
	_, m := newTestMedium(t, Config{})
	// 11 Mbps: 1375 bytes on the air = 11000 bits = 1 ms.
	d := m.TxDuration(1375 - headerBytes)
	if d != time.Millisecond {
		t.Fatalf("TxDuration = %v, want 1ms", d)
	}
	small, large := m.TxDuration(10), m.TxDuration(1000)
	if small >= large {
		t.Fatalf("duration not monotone in size: %v vs %v", small, large)
	}
}

func TestOverlappingTransmissionsCollide(t *testing.T) {
	t.Parallel()
	k, m := newTestMedium(t, Config{Range: 100, LossRate: 0})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	b := m.Attach(geo.Stationary{At: geo.Point{X: 50, Y: 0}})
	rx := m.Attach(geo.Stationary{At: geo.Point{X: 25, Y: 0}})

	delivered := 0
	rx.SetHandler(func(Frame) { delivered++ })

	payload := make([]byte, 1000)
	// Both transmissions start at t=0 and overlap at rx.
	k.ScheduleFunc(0, func() { m.Broadcast(a, payload) })
	k.ScheduleFunc(0, func() { m.Broadcast(b, payload) })
	k.Run(0)

	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0 (collision)", delivered)
	}
	// At least the two receptions at rx collide; a and b (in range of each
	// other, both transmitting) also garble each other's frames because the
	// radios are half-duplex.
	if got := m.Stats().Collisions; got < 2 {
		t.Fatalf("collisions = %d, want >= 2", got)
	}
}

func TestHalfDuplexTransmitterCannotHear(t *testing.T) {
	t.Parallel()
	k, m := newTestMedium(t, Config{Range: 100, LossRate: 0})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	b := m.Attach(geo.Stationary{At: geo.Point{X: 50, Y: 0}})
	heard := 0
	a.SetHandler(func(Frame) { heard++ })
	payload := make([]byte, 2000)
	// Both transmit at the same instant: a must not hear b's frame.
	k.ScheduleFunc(0, func() { m.Broadcast(a, payload) })
	k.ScheduleFunc(0, func() { m.Broadcast(b, payload) })
	k.Run(0)
	if heard != 0 {
		t.Fatalf("transmitting radio heard %d frames", heard)
	}
	// A later frame is heard normally.
	k.ScheduleFunc(0, func() { m.Broadcast(b, []byte("later")) })
	k.Run(0)
	if heard != 1 {
		t.Fatalf("idle radio heard %d frames, want 1", heard)
	}
}

func TestNonOverlappingTransmissionsBothDeliver(t *testing.T) {
	t.Parallel()
	k, m := newTestMedium(t, Config{Range: 100})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	b := m.Attach(geo.Stationary{At: geo.Point{X: 50, Y: 0}})
	rx := m.Attach(geo.Stationary{At: geo.Point{X: 25, Y: 0}})

	delivered := 0
	rx.SetHandler(func(Frame) { delivered++ })

	payload := make([]byte, 100)
	gap := m.TxDuration(len(payload)) + time.Millisecond
	k.ScheduleFunc(0, func() { m.Broadcast(a, payload) })
	k.ScheduleFunc(gap, func() { m.Broadcast(b, payload) })
	k.Run(0)

	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
	if m.Stats().Collisions != 0 {
		t.Fatalf("collisions = %d, want 0", m.Stats().Collisions)
	}
}

func TestCollisionOnlyAtSharedReceiver(t *testing.T) {
	t.Parallel()
	// a and b transmit simultaneously; rxA hears only a, rxB hears only b.
	// Neither reception collides.
	k, m := newTestMedium(t, Config{Range: 40})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	rxA := m.Attach(geo.Stationary{At: geo.Point{X: 30, Y: 0}})
	b := m.Attach(geo.Stationary{At: geo.Point{X: 200, Y: 0}})
	rxB := m.Attach(geo.Stationary{At: geo.Point{X: 230, Y: 0}})

	got := 0
	rxA.SetHandler(func(Frame) { got++ })
	rxB.SetHandler(func(Frame) { got++ })

	k.ScheduleFunc(0, func() { m.Broadcast(a, []byte("x")) })
	k.ScheduleFunc(0, func() { m.Broadcast(b, []byte("y")) })
	k.Run(0)

	if got != 2 {
		t.Fatalf("deliveries = %d, want 2 (spatial reuse)", got)
	}
}

func TestLossRateDropsFrames(t *testing.T) {
	t.Parallel()
	k, m := newTestMedium(t, Config{Range: 100, LossRate: 0.5})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	rx := m.Attach(geo.Stationary{At: geo.Point{X: 10, Y: 0}})
	delivered := 0
	rx.SetHandler(func(Frame) { delivered++ })

	const n = 1000
	gap := m.TxDuration(10) + time.Millisecond
	for i := 0; i < n; i++ {
		at := time.Duration(i) * gap
		k.ScheduleFuncAt(at, func() { m.Broadcast(a, make([]byte, 10)) })
	}
	k.Run(0)

	if delivered < 350 || delivered > 650 {
		t.Fatalf("delivered = %d of %d with 50%% loss, want ≈500", delivered, n)
	}
	st := m.Stats()
	if st.Lost+uint64(delivered) != n {
		t.Fatalf("lost(%d)+delivered(%d) != %d", st.Lost, delivered, n)
	}
}

func TestDisabledRadio(t *testing.T) {
	t.Parallel()
	k, m := newTestMedium(t, Config{Range: 100})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	rx := m.Attach(geo.Stationary{At: geo.Point{X: 10, Y: 0}})
	rx.SetHandler(func(Frame) { t.Error("disabled radio received") })
	rx.SetEnabled(false)

	k.ScheduleFunc(0, func() { m.Broadcast(a, []byte("x")) })
	k.Run(0)

	a.SetEnabled(false)
	k.ScheduleFunc(0, func() { m.Broadcast(a, []byte("x")) })
	k.Run(0)
	if m.Stats().Transmissions != 1 {
		t.Fatalf("disabled radio transmitted: %d", m.Stats().Transmissions)
	}
}

func TestMobilityAffectsRange(t *testing.T) {
	t.Parallel()
	// rx walks away from a; early frames deliver, late frames do not.
	k, m := newTestMedium(t, Config{Range: 50})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	rx := m.Attach(geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 10, Y: 0}},
		{At: 100 * time.Second, Pos: geo.Point{X: 1000, Y: 0}},
	}))
	delivered := 0
	rx.SetHandler(func(Frame) { delivered++ })

	k.ScheduleFunc(time.Second, func() { m.Broadcast(a, []byte("early")) })
	k.ScheduleFunc(90*time.Second, func() { m.Broadcast(a, []byte("late")) })
	k.Run(0)

	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (only the early frame)", delivered)
	}
}

func TestNeighbors(t *testing.T) {
	t.Parallel()
	_, m := newTestMedium(t, Config{Range: 50})
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
	b := m.Attach(geo.Stationary{At: geo.Point{X: 30, Y: 0}})
	c := m.Attach(geo.Stationary{At: geo.Point{X: 45, Y: 0}})
	d := m.Attach(geo.Stationary{At: geo.Point{X: 200, Y: 0}})

	nb := m.Neighbors(a)
	if len(nb) != 2 || nb[0] != b.ID() || nb[1] != c.ID() {
		t.Fatalf("Neighbors(a) = %v, want [b c]", nb)
	}
	c.SetEnabled(false)
	if nb := m.Neighbors(a); len(nb) != 1 {
		t.Fatalf("Neighbors with c disabled = %v", nb)
	}
	if nb := m.Neighbors(d); len(nb) != 0 {
		t.Fatalf("Neighbors(d) = %v, want empty", nb)
	}
}

func TestStatsString(t *testing.T) {
	t.Parallel()
	s := Stats{Transmissions: 1, Deliveries: 2, Collisions: 3, Lost: 4, BytesSent: 5}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}
