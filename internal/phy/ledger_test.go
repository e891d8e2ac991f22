package phy

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// TestReceptionLedgerBalances holds the medium's books: every reception it
// schedules ends in exactly one counter — delivered, collided, lost, jammed,
// or deaf for a receiver switched off while the frame was in the air. One
// sender's frames reach k receivers each; every fourth frame has a second
// one overlapping it (a collision at every receiver), every fourth other
// frame finds one receiver switched off mid-flight and back on before the
// next, a jammer blacks out the far receivers for a window, and the rest
// take their chances with the loss coin.
func TestReceptionLedgerBalances(t *testing.T) {
	t.Parallel()
	const receivers, rounds = 6, 100
	k := sim.NewKernel(3)
	m := NewMedium(k, Config{Range: 50, LossRate: 0.2})
	sender := m.Attach(geo.Stationary{})
	rxs := make([]*Radio, receivers)
	for i := range rxs {
		rxs[i] = m.Attach(geo.Stationary{At: geo.Point{X: 5 * float64(i+1)}})
		rxs[i].SetHandler(func(Frame) {})
	}
	m.SetJammer(&Jammer{Center: geo.Point{X: 30}, Radius: 12, From: 200 * time.Millisecond, Until: 600 * time.Millisecond})
	payload := make([]byte, 200)
	air := m.TxDuration(len(payload)) + propagationDelay
	deaf := rxs[0]
	for i := 0; i < rounds; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		k.ScheduleFuncAt(at, func() { m.Broadcast(sender, payload) })
		switch i % 4 {
		case 1:
			k.ScheduleFuncAt(at+air/4, func() { deaf.SetEnabled(false) })
			k.ScheduleFuncAt(at+2*air, func() { deaf.SetEnabled(true) })
		case 3:
			k.ScheduleFuncAt(at+air/2, func() { m.Broadcast(sender, payload) })
		}
	}
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if want := uint64(rounds + rounds/4); st.Transmissions != want {
		t.Fatalf("%d frames on the air, want %d", st.Transmissions, want)
	}
	counted := st.Deliveries + st.Collisions + st.Lost + st.Jammed + st.Deaf
	outcomes := fmt.Sprintf("delivered %d, collided %d, lost %d, jammed %d, deaf %d",
		st.Deliveries, st.Collisions, st.Lost, st.Jammed, st.Deaf)
	if scheduled := receivers * st.Transmissions; counted != scheduled {
		t.Errorf("%d receptions scheduled, %d counted: %s", scheduled, counted, outcomes)
	}
	if st.Deaf != rounds/4 || st.Collisions == 0 || st.Lost == 0 || st.Jammed == 0 {
		t.Errorf("want every outcome, deaf once per switched-off frame (%d): %s", rounds/4, outcomes)
	}
}

// TestMediumMatchesAlohaClosedForm is the medium's physics oracle. phy does
// no carrier sense, so Poisson senders are unslotted ALOHA: a frame reaches
// a silent receiver exactly when no other frame starts within one airtime
// either side of it, which at offered load G (frames per airtime) happens
// with probability e^{-2G}. Ten stationary senders, each a Poisson process
// drawn from its own sim.Stream, share a loss-free world with one receiver,
// and over 10⁶ frames its delivered fraction must lie within 3σ of that. A
// sender is switched on only for the instant it transmits, so the senders
// do not receive one another's frames — they could not change the
// receiver's outcome, only the test's cost.
func TestMediumMatchesAlohaClosedForm(t *testing.T) {
	t.Parallel()
	const (
		senders = 10
		frames  = 1_000_000
		load    = 0.25
	)
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: 50})
	rx := m.Attach(geo.Stationary{})
	payload := make([]byte, 200)
	air := m.TxDuration(len(payload)) + propagationDelay
	meanGap := float64(senders) * float64(air) / load // per sender, in ns
	sent := 0
	for i := 0; i < senders; i++ {
		angle := 2 * math.Pi * float64(i) / senders
		r := m.Attach(geo.Stationary{At: geo.Point{X: 20 * math.Cos(angle), Y: 20 * math.Sin(angle)}})
		r.SetEnabled(false)
		arrivals := sim.NewStream(1, r.ID(), sim.PurposePeer)
		gap := func() time.Duration { return time.Duration(-math.Log(1-arrivals.Float64()) * meanGap) }
		var next *sim.Timer
		next = k.NewTimer(func() {
			if sent == frames {
				return
			}
			sent++
			r.SetEnabled(true)
			m.Broadcast(r, payload)
			r.SetEnabled(false)
			next.Reset(gap())
		})
		next.Reset(gap())
	}
	if err := k.Run(time.Duration(float64(frames)*meanGap/senders) * 2); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if sent != frames || st.Transmissions != frames || st.Deliveries+st.Collisions != frames || rx.Received != st.Deliveries {
		t.Fatalf("%d sent, %+v, %d received: want every frame on the air and heard by the receiver once", sent, st, rx.Received)
	}
	got := float64(st.Deliveries) / frames
	want := math.Exp(-2 * load)
	sigma := math.Sqrt(want * (1 - want) / frames)
	t.Logf("delivered fraction %.5f, e^{-2G} = %.5f, σ = %.5f", got, want, sigma)
	if math.Abs(got-want) > 3*sigma {
		t.Errorf("delivered fraction %.5f is %.1fσ from e^{-2G} = %.5f", got, math.Abs(got-want)/sigma, want)
	}
}
