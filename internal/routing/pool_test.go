package routing

import (
	"testing"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// TestDSDVDataPathDoesNotAllocate pins the IP baseline's data path: once the
// medium's pools and the kernel are warm, a DSDV Send, its one forwarded hop
// and the delivery cost no object. Each hop encodes into a wire from the
// medium's pool, and the medium takes it back once the hop's transmission is
// over.
//
// Serial on purpose: AllocsPerRun reads the process-wide counter.
func TestDSDVDataPathDoesNotAllocate(t *testing.T) {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{Range: 50})
	// a - b - c, 40 m apart: a reaches c only through b. The nodes run
	// without their periodic dumps, on routes set by hand.
	var nodes [3]*DSDV
	for i := range nodes {
		nodes[i] = NewDSDV(k, m, geo.Stationary{At: geo.Point{X: float64(i) * 40}})
		nodes[i].running = true
	}
	a, b, c := nodes[0], nodes[1], nodes[2]
	a.table[c.id] = dsdvRoute{nextHop: b.id, metric: 2}
	b.table[c.id] = dsdvRoute{nextHop: c.id, metric: 1}
	payload := make([]byte, 1000)
	delivered := 0
	c.SetDeliver(func(src int, p []byte) {
		if src == a.id && len(p) == len(payload) {
			delivered++
		}
	})
	once := func() {
		if !a.Send(c.id, payload) {
			t.Fatal("a has no route to c")
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ { // fill the pools across the wheel's slots
		once()
	}
	if avg := testing.AllocsPerRun(200, once); avg != 0 {
		t.Errorf("a DSDV send, its forwarded hop and the delivery allocate %.2f objects, want 0", avg)
	}
	if st := m.Stats(); delivered != 713 || st.Transmissions != 2*713 || k.Pending() != 0 {
		t.Fatalf("delivered %d, %d frames on the air, %d events pending; want 713, 1426, 0",
			delivered, st.Transmissions, k.Pending())
	}
}
