package phy

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// broadcastAllocs measures the steady-state allocations of one broadcast —
// scheduling through completion — heard by k receivers.
func broadcastAllocs(t *testing.T, k int, notify func(bool)) float64 {
	t.Helper()
	kernel := sim.NewKernel(1)
	m := NewMedium(kernel, Config{Range: 50, LossRate: 0.1})
	sender := m.Attach(geo.Stationary{})
	heard := 0
	for i := 0; i < k; i++ {
		rx := m.Attach(geo.Stationary{At: geo.Point{X: 1 + float64(i)}})
		rx.SetHandler(func(Frame) { heard++ })
	}
	payload := make([]byte, 256) // first byte 0: not an NDN packet, no decode memo
	once := func() {
		m.BroadcastNotify(sender, payload, notify)
		if err := kernel.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	// Fill the record pools and the kernel's event free-list, and carry the
	// clock across every first-level slot of the timer wheel so each has
	// grown to hold k events.
	for i := 0; i < 512; i++ {
		once()
	}
	avg := testing.AllocsPerRun(200, once)
	if heard == 0 {
		t.Fatal("no receiver heard anything")
	}
	return avg
}

// TestBroadcastDoesNotAllocatePerReceiver pins the reception path at zero
// allocations however many radios hear a frame, with and without sender-side
// collision feedback: receptions, the per-broadcast transmission record and
// their completion funcs all come from the medium's pools.
func TestBroadcastDoesNotAllocatePerReceiver(t *testing.T) {
	for _, mode := range []struct {
		name   string
		notify func(bool)
	}{{"plain", nil}, {"notify", func(bool) {}}} {
		for _, k := range []int{1, 4, 32} {
			if avg := broadcastAllocs(t, k, mode.notify); avg != 0 {
				t.Errorf("%s broadcast to %d receivers allocates %.2f objects, want 0", mode.name, k, avg)
			}
		}
	}
}

// TestRebroadcastFromCompletionSeesOwnFrame is the pool-hygiene gate: a
// handler that broadcasts from inside its own completion may be handed the
// very transmission record its frame just vacated (when it is the frame's
// last receiver) or run while that record is still live (when it is not).
// Either way it, and every later receiver, must see the right frame.
func TestRebroadcastFromCompletionSeesOwnFrame(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: 50})
	// e - c - a - b - d on a line, 40 m apart: a reaches b and c, who reach
	// a and their own outer neighbor only.
	a := m.Attach(geo.Stationary{At: geo.Point{X: 0}})
	b := m.Attach(geo.Stationary{At: geo.Point{X: 40}})
	c := m.Attach(geo.Stationary{At: geo.Point{X: -40}})
	d := m.Attach(geo.Stationary{At: geo.Point{X: 80}})
	e := m.Attach(geo.Stationary{At: geo.Point{X: -80}})

	var heard []string
	record := func(rx *Radio, f Frame) {
		heard = append(heard, fmt.Sprintf("%d heard %q from %d (%d B)", rx.ID(), f.Payload, f.From, f.Size))
	}
	var feedback []bool
	relay := func(rx *Radio, reply string) Handler {
		return func(f Frame) {
			m.BroadcastNotify(rx, []byte(reply), func(collided bool) { feedback = append(feedback, collided) })
			record(rx, f) // after the nested broadcast took records from the pool
		}
	}
	b.SetHandler(relay(b, "from-b")) // not a's last receiver: a's record is still live
	c.SetHandler(relay(c, "from-c")) // a's last receiver: the nested broadcast reuses a's record
	a.SetHandler(func(f Frame) { record(a, f) })
	d.SetHandler(func(f Frame) { record(d, f) })
	e.SetHandler(func(f Frame) { record(e, f) })

	m.Broadcast(a, []byte("from-a"))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	sort.Strings(heard)
	hdr := m.Config().HeaderBytes
	want := []string{
		fmt.Sprintf("%d heard %q from %d (%d B)", b.ID(), "from-a", a.ID(), 6+hdr),
		fmt.Sprintf("%d heard %q from %d (%d B)", c.ID(), "from-a", a.ID(), 6+hdr),
		fmt.Sprintf("%d heard %q from %d (%d B)", d.ID(), "from-b", b.ID(), 6+hdr),
		fmt.Sprintf("%d heard %q from %d (%d B)", e.ID(), "from-c", c.ID(), 6+hdr),
	}
	if !reflect.DeepEqual(heard, want) {
		t.Fatalf("deliveries:\n got %q\nwant %q", heard, want)
	}
	// The two replies start together and garble each other at a.
	if !reflect.DeepEqual(feedback, []bool{true, true}) {
		t.Fatalf("collision feedback = %v, want both replies reported collided", feedback)
	}
	if st := m.Stats(); st.Collisions != 2 || st.Deliveries != 4 {
		t.Fatalf("stats = %+v, want 4 deliveries and 2 collisions", st)
	}
	// Three broadcasts and six receptions ran on two and four records: c's
	// reply took over a's transmission, and each reply one of a's receptions.
	if len(m.txFree) != 2 || len(m.recFree) != 4 {
		t.Fatalf("pools hold %d transmissions and %d receptions after the run, want 2 and 4", len(m.txFree), len(m.recFree))
	}
}

// TestBroadcastAfterDoesNotAllocate: a jittered send goes on the air after
// its delay and bumps its counter, is dropped — uncounted — once its sender's
// live flag is down, and once the medium's job pool is warm costs no object
// either way.
func TestBroadcastAfterDoesNotAllocate(t *testing.T) {
	kernel := sim.NewKernel(1)
	m := NewMedium(kernel, Config{Range: 50})
	sender := m.Attach(geo.Stationary{})
	heard := 0
	m.Attach(geo.Stationary{At: geo.Point{X: 1}}).SetHandler(func(Frame) { heard++ })
	payload := make([]byte, 64)
	live, sent := true, uint64(0)
	once := func() {
		m.BroadcastAfter(time.Millisecond, sender, payload, &sent, &live)
		if err := kernel.Run(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ { // fill the pools across the wheel's slots
		once()
	}
	if avg := testing.AllocsPerRun(200, once); avg != 0 {
		t.Errorf("BroadcastAfter allocates %.2f objects, want 0", avg)
	}
	if sent != 713 || heard != 713 || m.Stats().Transmissions != 713 {
		t.Fatalf("sent %d, heard %d, on the air %d; want 713 each", sent, heard, m.Stats().Transmissions)
	}
	live = false
	if avg := testing.AllocsPerRun(200, once); avg != 0 {
		t.Errorf("dropped BroadcastAfter allocates %.2f objects, want 0", avg)
	}
	if sent != 713 || m.Stats().Transmissions != 713 {
		t.Fatalf("a send whose sender stopped went on the air: sent %d, on the air %d", sent, m.Stats().Transmissions)
	}
}
