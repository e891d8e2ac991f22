package phy

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/sim"
)

// broadcastAllocs measures the steady-state allocations of one broadcast —
// send's, scheduling through completion — heard by k receivers, each of
// which hands the frame to onFrame (when non-nil), and the kernel events one
// such broadcast fires.
func broadcastAllocs(t *testing.T, k int, send func(m *Medium, sender *Radio), onFrame func(Frame)) (avg float64, events uint64) {
	t.Helper()
	kernel := sim.NewKernel(1)
	m := NewMedium(kernel, Config{Range: 50, LossRate: 0.1})
	sender := m.Attach(geo.Stationary{})
	heard := 0
	for i := 0; i < k; i++ {
		rx := m.Attach(geo.Stationary{At: geo.Point{X: 1 + float64(i)}})
		rx.SetHandler(func(f Frame) {
			heard++
			if onFrame != nil {
				onFrame(f)
			}
		})
	}
	once := func() {
		send(m, sender)
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
	avg = testing.AllocsPerRun(200, once)
	if heard == 0 {
		t.Fatal("no receiver heard anything")
	}
	fired := kernel.EventsFired()
	once()
	return avg, kernel.EventsFired() - fired
}

// TestBroadcastDoesNotAllocatePerReceiver pins the reception path at zero
// allocations however many radios hear a frame, with and without sender-side
// collision feedback: receptions and the per-broadcast transmission record
// come from the medium's pools. It also pins the event model: a broadcast,
// whatever its receivers, completes in exactly one kernel event.
func TestBroadcastDoesNotAllocatePerReceiver(t *testing.T) {
	for _, mode := range []struct {
		name   string
		notify func(bool)
	}{{"plain", nil}, {"notify", func(bool) {}}} {
		for _, k := range []int{1, 4, 32} {
			// First byte 0: not an NDN packet, no decode memo.
			payload := make([]byte, 256)
			send := func(m *Medium, sender *Radio) { m.BroadcastNotify(sender, payload, mode.notify) }
			avg, events := broadcastAllocs(t, k, send, nil)
			if avg != 0 {
				t.Errorf("%s broadcast to %d receivers allocates %.2f objects, want 0", mode.name, k, avg)
			}
			if events != 1 {
				t.Errorf("%s broadcast to %d receivers fires %d kernel events, want 1", mode.name, k, events)
			}
		}
	}
}

// TestDeliveredInterestDoesNotAllocate pins the Interest's decode in the
// transmission record: with the medium warm, an Interest heard by k
// receivers that each read it costs no object at all.
func TestDeliveredInterestDoesNotAllocate(t *testing.T) {
	wire := (&ndn.Interest{Name: ndn.ParseName("/dapes/bitmap/c0ffee/adv/7/3"), CanBePrefix: true, Nonce: 9, AppParams: make([]byte, 64)}).Encode()
	read := func(f Frame) {
		if in := f.Packet().Interest(); in == nil || in.NameKey() != "/dapes/bitmap/c0ffee/adv/7/3" || in.Nonce != 9 {
			t.Fatalf("delivered Interest decoded as %+v (%v)", in, f.Packet().Err())
		}
	}
	send := func(m *Medium, sender *Radio) { m.Broadcast(sender, wire) }
	for _, k := range []int{1, 4, 32} {
		if avg, _ := broadcastAllocs(t, k, send, read); avg != 0 {
			t.Errorf("an Interest heard by %d receivers allocates %.2f objects, want 0", k, avg)
		}
	}
}

// TestStoredDataSendDoesNotAllocate pins the stored or relayed Data's send:
// with the medium warm, a Data record sent by BroadcastData or
// BroadcastDataAfter and read by each of k receivers costs no object — no
// packet view and no decode per transmission.
func TestStoredDataSendDoesNotAllocate(t *testing.T) {
	d := &ndn.Data{Name: ndn.ParseName("/dapes/c0ffee/file/3/17"), Content: make([]byte, 512)}
	d.SignDigest()
	read := func(f Frame) {
		if got := f.Packet().Data(); got != d {
			t.Fatalf("delivered Data is %p, want the sender's record %p", got, d)
		}
	}
	live, sent := true, uint64(0)
	for _, mode := range []struct {
		name string
		send func(m *Medium, sender *Radio)
	}{
		{"BroadcastData", func(m *Medium, sender *Radio) { m.BroadcastData(sender, d) }},
		{"BroadcastDataAfter", func(m *Medium, sender *Radio) {
			m.BroadcastDataAfter(time.Millisecond, sender, d, &sent, &live)
		}},
	} {
		for _, k := range []int{1, 4, 32} {
			if avg, _ := broadcastAllocs(t, k, mode.send, read); avg != 0 {
				t.Errorf("%s heard by %d receivers allocates %.2f objects, want 0", mode.name, k, avg)
			}
		}
	}
}

// TestRebroadcastFromCompletionSeesOwnFrame is the pool-hygiene gate: a
// handler that broadcasts from inside its frame's completion runs while the
// frame's transmission record is still live — even as the frame's last
// receiver, since the record returns to the pool only after every handler
// has — so its broadcast takes another record, and the Interest decoded
// into its own record still reads as the one it heard. It, and every later
// receiver, must see the right frame.
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

	interest := func(name string) []byte {
		return (&ndn.Interest{Name: ndn.ParseName(name), Nonce: 1}).Encode()
	}
	var heard []string
	record := func(rx *Radio, f Frame) {
		heard = append(heard, fmt.Sprintf("%d heard %s from %d (%d B)", rx.ID(), f.Packet().Interest().NameKey(), f.From, f.Size))
	}
	var feedback []bool
	relay := func(rx *Radio, reply string) Handler {
		wire := interest(reply)
		return func(f Frame) {
			heardName := f.Packet().Interest().NameKey()
			m.BroadcastNotify(rx, wire, func(collided bool) { feedback = append(feedback, collided) })
			// After the nested broadcast took records from the pool, the
			// Interest still reads as the one this radio heard.
			if got := f.Packet().Interest().NameKey(); got != heardName {
				t.Errorf("radio %d: its Interest read %s before its broadcast and %s after", rx.ID(), heardName, got)
			}
			record(rx, f)
		}
	}
	b.SetHandler(relay(b, "/from-b")) // not a's last receiver
	c.SetHandler(relay(c, "/from-c")) // a's last receiver: a's record is still held
	a.SetHandler(func(f Frame) { record(a, f) })
	d.SetHandler(func(f Frame) { record(d, f) })
	e.SetHandler(func(f Frame) { record(e, f) })

	wire := interest("/from-a")
	m.Broadcast(a, wire)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	sort.Strings(heard)
	size := len(wire) + headerBytes // the three names are as long
	want := []string{
		fmt.Sprintf("%d heard %s from %d (%d B)", b.ID(), "/from-a", a.ID(), size),
		fmt.Sprintf("%d heard %s from %d (%d B)", c.ID(), "/from-a", a.ID(), size),
		fmt.Sprintf("%d heard %s from %d (%d B)", d.ID(), "/from-b", b.ID(), size),
		fmt.Sprintf("%d heard %s from %d (%d B)", e.ID(), "/from-c", c.ID(), size),
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
	// Three broadcasts and six receptions ran on three and six records:
	// every reply was sent while a's transmission and its receptions were
	// still held, so none took any of them over.
	if len(m.txFree) != 3 || len(m.recFree) != 6 {
		t.Fatalf("pools hold %d transmissions and %d receptions after the run, want 3 and 6", len(m.txFree), len(m.recFree))
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

// sameArray reports whether a and b share their backing array's first byte.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestOwnedWireReturnsOnceOnEveryExit: a wire handed to BroadcastOwnedAfter
// or BroadcastOwned comes back to the medium's pool exactly once, whichever
// way its send ends — dropped because the sender stopped, not sent because
// the radio is off, sent to nobody, or delivered, and then only after the
// handler has read it — and the next Wire hands out that same array again.
func TestOwnedWireReturnsOnceOnEveryExit(t *testing.T) {
	t.Parallel()
	const body = "owned frame"
	for _, tc := range []struct {
		name                               string
		live, enabled, neighbor, immediate bool
		heard                              int
	}{
		{"dropped", false, true, true, false, 0},
		{"disabled", true, false, true, false, 0},
		{"nobody in range", true, true, false, false, 0},
		{"delivered", true, true, true, false, 1},
		{"immediate, disabled", true, false, true, true, 0},
		{"immediate, nobody in range", true, true, false, true, 0},
		{"immediate, delivered", true, true, true, true, 1},
	} {
		k := sim.NewKernel(1)
		m := NewMedium(k, Config{Range: 50})
		sender := m.Attach(geo.Stationary{})
		sender.SetEnabled(tc.enabled)
		wire := append(m.Wire(64), body...)
		heard := 0
		if tc.neighbor {
			m.Attach(geo.Stationary{At: geo.Point{X: 1}}).SetHandler(func(f Frame) {
				heard++
				if string(f.Payload) != body || !sameArray(f.Payload, wire) {
					t.Errorf("%s: handler read %q, want %q in the sent wire", tc.name, f.Payload, body)
				}
				if len(m.wireFree) != 0 {
					t.Errorf("%s: the wire went back to the pool before its handler returned", tc.name)
				}
			})
		}
		live := tc.live
		if tc.immediate {
			m.BroadcastOwned(sender, wire)
		} else {
			m.BroadcastOwnedAfter(time.Millisecond, sender, wire, nil, &live)
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if heard != tc.heard {
			t.Errorf("%s: heard %d times, want %d", tc.name, heard, tc.heard)
		}
		if len(m.wireFree) != 1 || !sameArray(m.wireFree[0], wire) {
			t.Fatalf("%s: pool holds %d wires after the send, want its one wire back once", tc.name, len(m.wireFree))
		}
		if again := m.Wire(len(body)); len(again) != 0 || !sameArray(again, wire) || len(m.wireFree) != 0 {
			t.Fatalf("%s: Wire handed out len %d, same array %v, %d left pooled; want the returned wire, emptied",
				tc.name, len(again), sameArray(again, wire), len(m.wireFree))
		}
	}
	// A pooled wire too small for the frame is not handed out.
	m := NewMedium(sim.NewKernel(1), Config{})
	small := m.Wire(8)
	m.release(small)
	if big := m.Wire(cap(small) + 1); cap(big) < cap(small)+1 || sameArray(big, small) {
		t.Fatalf("Wire(%d) handed out capacity %d (the pooled wire: %v)", cap(small)+1, cap(big), sameArray(big, small))
	}
}

// TestRebroadcastOwnedFromCompletionTakesAnotherWire is the owned-wire
// analogue of TestRebroadcastFromCompletionSeesOwnFrame: a handler that
// relays from inside its frame's completion — as that frame's last receiver
// — takes a wire other than the one it is reading, since the heard wire
// returns to the pool only after every handler has run. The heard frame
// reads the same after the relay wrote its own, and both wires end up
// pooled once each.
func TestRebroadcastOwnedFromCompletionTakesAnotherWire(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: 50})
	a := m.Attach(geo.Stationary{})
	b := m.Attach(geo.Stationary{At: geo.Point{X: 40}})
	spare := m.Wire(64)
	m.release(spare)
	live := true
	var heard []string
	a.SetHandler(func(f Frame) { heard = append(heard, "a heard "+string(f.Payload)) })
	b.SetHandler(func(f Frame) {
		heard = append(heard, "b heard "+string(f.Payload))
		relay := m.Wire(len(f.Payload))
		if sameArray(relay, f.Payload) {
			t.Fatal("the relay was handed the wire its handler is reading")
		}
		relay = append(relay, "from b"...)
		m.BroadcastOwnedAfter(0, b, relay, nil, &live)
		if string(f.Payload) != "from a" {
			t.Errorf("after the relay wrote its wire, the heard frame reads %q", f.Payload)
		}
	})
	sent := append(m.Wire(64), "from a"...)
	m.BroadcastOwnedAfter(0, a, sent, nil, &live)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := []string{"b heard from a", "a heard from b"}; !reflect.DeepEqual(heard, want) {
		t.Fatalf("deliveries %q, want %q", heard, want)
	}
	if len(m.wireFree) != 2 || sameArray(m.wireFree[0], m.wireFree[1]) ||
		!(sameArray(m.wireFree[0], sent) || sameArray(m.wireFree[1], sent)) ||
		!(sameArray(m.wireFree[0], spare) || sameArray(m.wireFree[1], spare)) {
		t.Fatalf("pool holds %d wires after the run, want the sent and the spare wire once each", len(m.wireFree))
	}
}
