package routing

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// chain builds n nodes in a line, spaced so only adjacent nodes are in range.
func chainDSDV(k *sim.Kernel, medium *phy.Medium, n int) []*DSDV {
	nodes := make([]*DSDV, n)
	for i := range nodes {
		nodes[i] = NewDSDV(k, medium, geo.Stationary{At: geo.Point{X: float64(i) * 40}})
		nodes[i].Start()
	}
	return nodes
}

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	f := &frame{
		Proto: protoData, Src: 3, Dst: 9, NextHop: 4, TTL: 7,
		Route:   []int{3, 4, 9},
		Payload: []byte("hello"),
	}
	out, err := decodeFrame(f.encode())
	if err != nil {
		t.Fatal(err)
	}
	out.decodeRoute()
	if out.Proto != f.Proto || out.Src != 3 || out.Dst != 9 || out.NextHop != 4 ||
		out.TTL != 7 || len(out.Route) != 3 || string(out.Payload) != "hello" {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	if _, err := decodeFrame([]byte{frameMagic, 1}); err == nil {
		t.Fatal("short frame decoded")
	}
	if _, err := decodeFrame([]byte{0x99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("wrong magic decoded")
	}
}

func TestBroadcastFrameNegativeAddresses(t *testing.T) {
	t.Parallel()
	f := &frame{Proto: protoDSDVUpdate, Src: 1, Dst: Broadcast, NextHop: Broadcast}
	out, err := decodeFrame(f.encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Dst != Broadcast || out.NextHop != Broadcast {
		t.Fatalf("broadcast addresses mangled: %+v", out)
	}
}

func TestDSDVConvergesOnChain(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(41)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	nodes := chainDSDV(k, medium, 4)
	k.Run(60 * time.Second)

	// Node 0 must know a multi-hop route to node 3 via node 1.
	next, metric, ok := nodes[0].RouteTo(nodes[3].ID())
	if !ok {
		t.Fatal("no route 0 -> 3 after convergence")
	}
	if next != nodes[1].ID() {
		t.Fatalf("next hop = %d, want %d", next, nodes[1].ID())
	}
	if metric != 3 {
		t.Fatalf("metric = %d, want 3", metric)
	}
}

func TestDSDVDeliversMultiHop(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(42)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	nodes := chainDSDV(k, medium, 4)

	var got []string
	nodes[3].SetDeliver(func(src int, payload []byte) {
		if src == nodes[0].ID() {
			got = append(got, string(payload))
		}
	})
	k.Run(60 * time.Second) // converge
	k.ScheduleFunc(0, func() {
		if !nodes[0].Send(nodes[3].ID(), []byte("across")) {
			t.Error("send failed despite converged routes")
		}
	})
	k.Run(70 * time.Second)

	if len(got) != 1 || got[0] != "across" {
		t.Fatalf("delivery = %v", got)
	}
}

func TestDSDVNoRouteReturnsFalse(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(43)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := NewDSDV(k, medium, geo.Stationary{})
	a.Start()
	if a.Send(99, []byte("x")) {
		t.Fatal("send to unknown destination succeeded")
	}
}

func TestDSDVGeneratesPeriodicOverhead(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(44)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	nodes := chainDSDV(k, medium, 2)
	k.Run(60 * time.Second)
	// ~12 updates each over 60s at 5s period (with jitter).
	for _, n := range nodes {
		if n.ControlTransmissions() < 8 {
			t.Fatalf("node %d sent only %d updates", n.ID(), n.ControlTransmissions())
		}
	}
}

func TestDSDVRoutesExpireWhenNeighborLeaves(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(45)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := NewDSDV(k, medium, geo.Stationary{})
	b := NewDSDV(k, medium, geo.NewScripted([]geo.Waypoint{
		{At: 0, Pos: geo.Point{X: 30}},
		{At: 30 * time.Second, Pos: geo.Point{X: 30}},
		{At: 32 * time.Second, Pos: geo.Point{X: 1000}},
	}))
	a.Start()
	b.Start()
	k.Run(25 * time.Second)
	if _, _, ok := a.RouteTo(b.ID()); !ok {
		t.Fatal("route not learned while in range")
	}
	k.Run(2 * time.Minute)
	if _, _, ok := a.RouteTo(b.ID()); ok {
		t.Fatal("route survived neighbor departure")
	}
}

func chainDSR(k *sim.Kernel, medium *phy.Medium, n int) []*DSR {
	nodes := make([]*DSR, n)
	for i := range nodes {
		nodes[i] = NewDSR(k, medium, geo.Stationary{At: geo.Point{X: float64(i) * 40}})
		nodes[i].Start()
	}
	return nodes
}

func TestDSRDiscoversAndDelivers(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(46)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	nodes := chainDSR(k, medium, 4)

	var got []string
	nodes[3].SetDeliver(func(src int, payload []byte) {
		if src == nodes[0].ID() {
			got = append(got, string(payload))
		}
	})
	k.ScheduleFunc(time.Second, func() {
		if !nodes[0].Send(nodes[3].ID(), []byte("ondemand")) {
			t.Error("send refused")
		}
	})
	k.Run(30 * time.Second)

	if len(got) != 1 || got[0] != "ondemand" {
		t.Fatalf("delivery = %v", got)
	}
	if !nodes[0].HasRoute(nodes[3].ID()) {
		t.Fatal("route not cached after discovery")
	}
	// Discovery flooded through intermediates.
	if nodes[1].ControlTransmissions() == 0 {
		t.Fatal("intermediate forwarded no RREQ/RREP")
	}
}

func TestDSRNoDiscoveryWhenRouteCached(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(47)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	nodes := chainDSR(k, medium, 3)

	count := 0
	nodes[2].SetDeliver(func(src int, payload []byte) { count++ })
	k.ScheduleFunc(time.Second, func() { nodes[0].Send(nodes[2].ID(), []byte("a")) })
	k.Run(10 * time.Second)
	ctrlAfterFirst := nodes[0].ControlTransmissions()
	k.ScheduleFunc(0, func() { nodes[0].Send(nodes[2].ID(), []byte("b")) })
	k.Run(20 * time.Second)

	if count != 2 {
		t.Fatalf("deliveries = %d, want 2", count)
	}
	if nodes[0].ControlTransmissions() != ctrlAfterFirst {
		t.Fatal("second send triggered new discovery despite cached route")
	}
}

func TestDSRDiscoveryRetriesAndGivesUp(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(48)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := NewDSR(k, medium, geo.Stationary{})
	a.Start()
	if !a.Send(77, []byte("void")) {
		t.Fatal("first send should buffer")
	}
	k.Run(time.Minute)
	if a.ControlTransmissions() != maxDiscoveryRetries {
		t.Fatalf("RREQ count = %d, want %d (retry then give up)", a.ControlTransmissions(), maxDiscoveryRetries)
	}
	if a.HasRoute(77) {
		t.Fatal("phantom route")
	}
}

func TestDSRInvalidateRouteForcesRediscovery(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(49)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	nodes := chainDSR(k, medium, 2)
	delivered := 0
	nodes[1].SetDeliver(func(int, []byte) { delivered++ })
	k.ScheduleFunc(time.Second, func() { nodes[0].Send(nodes[1].ID(), []byte("x")) })
	k.Run(5 * time.Second)
	ctrl := nodes[0].ControlTransmissions()
	nodes[0].InvalidateRoute(nodes[1].ID())
	k.ScheduleFunc(0, func() { nodes[0].Send(nodes[1].ID(), []byte("y")) })
	k.Run(15 * time.Second)
	if delivered != 2 {
		t.Fatalf("deliveries = %d, want 2", delivered)
	}
	if nodes[0].ControlTransmissions() <= ctrl {
		t.Fatal("no rediscovery after invalidation")
	}
}

func TestDSRSendToSelf(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(50)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	a := NewDSR(k, medium, geo.Stationary{})
	a.Start()
	got := 0
	a.SetDeliver(func(src int, payload []byte) { got++ })
	a.Send(a.ID(), []byte("self"))
	if got != 1 {
		t.Fatal("self-delivery failed")
	}
}

func TestMixedStacksShareMedium(t *testing.T) {
	t.Parallel()
	// Routing frames and NDN packets coexist: a DSDV pair converges while
	// the medium also carries non-routing payloads that must be ignored.
	k := sim.NewKernel(51)
	medium := phy.NewMedium(k, phy.Config{Range: 100})
	a := NewDSDV(k, medium, geo.Stationary{})
	b := NewDSDV(k, medium, geo.Stationary{At: geo.Point{X: 10}})
	a.Start()
	b.Start()
	noise := medium.Attach(geo.Stationary{At: geo.Point{X: 20}})
	for i := 0; i < 20; i++ {
		k.ScheduleFuncAt(time.Duration(i)*time.Second, func() {
			medium.Broadcast(noise, []byte{0x05, 0x03, 0x07, 0x01, 'x'})
		})
	}
	k.Run(30 * time.Second)
	if _, _, ok := a.RouteTo(b.ID()); !ok {
		t.Fatal("DSDV failed to converge amid NDN traffic")
	}
}
