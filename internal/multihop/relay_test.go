package multihop

import (
	"fmt"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// relayRig is a started Relay on a medium nobody else listens on: what it
// transmits is medium.Stats().Transmissions.
type relayRig struct {
	k      *sim.Kernel
	medium *phy.Medium
	r      Relay
	c      Counters
}

func newRelayRig(seed int64) *relayRig {
	rig := &relayRig{k: sim.NewKernel(seed)}
	rig.medium = phy.NewMedium(rig.k, phy.Config{Range: 50})
	rig.r = NewRelay(rig.k, rig.medium, rig.medium.Attach(geo.Stationary{}), &rig.c)
	rig.r.Start()
	return rig
}

// compact makes the relay's next insertion check compact its tables now.
func compact(r *Relay) {
	r.compactAt = 0
	r.inserted()
}

func signedData(uri string) *ndn.Data {
	d := &ndn.Data{Name: ndn.ParseName(uri)}
	d.SignDigest()
	return d
}

// TestRelayWindowsCloseOnTheInstant: a forwarded Interest is in flight up to,
// not including, SuppressTTL; the suppression armed at that instant is seen
// by an Interest arriving at it (the arming was scheduled first, and
// same-time events fire in scheduling order); and it lifts SuppressTTL later.
func TestRelayWindowsCloseOnTheInstant(t *testing.T) {
	t.Parallel()
	rig := newRelayRig(1)
	k, r := rig.k, &rig.r
	in := &ndn.Interest{Name: ndn.ParseName("/never/0"), Nonce: 1}
	const t0 = time.Second
	type probe struct{ inFlight, suppressed bool }
	got := map[time.Duration]probe{}
	k.ScheduleFuncAt(t0, func() {
		r.Forward(in)
		// Arrivals are scheduled after the forward, as a frame's delivery is.
		for _, at := range []time.Duration{t0 + SuppressTTL - 1, t0 + SuppressTTL, t0 + 2*SuppressTTL - 1, t0 + 2*SuppressTTL} {
			k.ScheduleFuncAt(at, func() { got[at] = probe{r.InFlight(in), r.Suppressed(in)} })
		}
	})
	k.Run(t0 + 3*SuppressTTL)
	want := map[time.Duration]probe{
		t0 + SuppressTTL - 1:   {inFlight: true},
		t0 + SuppressTTL:       {suppressed: true},
		t0 + 2*SuppressTTL - 1: {suppressed: true},
		t0 + 2*SuppressTTL:     {},
	}
	for at, w := range want {
		if got[at] != w {
			t.Errorf("at forward+%v: %+v, want %+v", at-t0, got[at], w)
		}
	}
	if rig.c.InterestsForwarded != 1 || rig.c.InterestsSuppressed != 2 {
		t.Errorf("counters %+v, want 1 forwarded, 2 suppressed", rig.c)
	}
}

// TestRelayDataOncePerName: Data for an exact record is relayed once however
// often it is heard; a CanBePrefix record relays each distinct Data name once
// and is counted answered once. Either answer lifts the name's suppression.
func TestRelayDataOncePerName(t *testing.T) {
	t.Parallel()
	rig := newRelayRig(2)
	k, r := rig.k, &rig.r
	k.ScheduleFuncAt(time.Second, func() {
		r.Forward(&ndn.Interest{Name: ndn.ParseName("/exact/0"), Nonce: 1})
		r.Forward(&ndn.Interest{Name: ndn.ParseName("/prefix"), CanBePrefix: true, Nonce: 2})
	})
	k.ScheduleFuncAt(time.Second+100*time.Millisecond, func() {
		for _, uri := range []string{"/exact/0", "/exact/0", "/exact/0/longer", "/prefix/a", "/prefix/b", "/prefix/a", "/prefix", "/other"} {
			r.RelayData(signedData(uri))
		}
	})
	k.Run(time.Second + 2*SuppressTTL)
	// /exact/0 once; /prefix/a, /prefix/b and /prefix once each.
	if rig.c.DataForwarded != 4 || rig.c.ForwardedAnswered != 2 {
		t.Errorf("counters %+v, want 4 Data forwarded for 2 answered records", rig.c)
	}
	if got := rig.medium.Stats().Transmissions; got != 2+4 {
		t.Errorf("%d transmissions, want 2 Interests and 4 Data", got)
	}
	if _, suppressed, _ := r.TableSizes(); suppressed != 0 {
		t.Errorf("%d names suppressed after both forwards were answered", suppressed)
	}
}

// TestRelayRecordLivesTwiceTheSuppressTTL: a forward record relays Data up to
// and including 2·SuppressTTL after the forward and not a nanosecond later,
// exact and CanBePrefix alike, whether or not a compaction reclaimed it in
// between. A lapsed exact record falls through to a live prefix record.
func TestRelayRecordLivesTwiceTheSuppressTTL(t *testing.T) {
	t.Parallel()
	const t0 = time.Second
	for _, compacted := range []bool{false, true} {
		for _, age := range []time.Duration{2 * SuppressTTL, 2*SuppressTTL + 1} {
			rig := newRelayRig(6)
			k, r := rig.k, &rig.r
			k.ScheduleFuncAt(t0, func() {
				r.Forward(&ndn.Interest{Name: ndn.ParseName("/a/0"), Nonce: 1})
				r.Forward(&ndn.Interest{Name: ndn.ParseName("/b"), CanBePrefix: true, Nonce: 2})
			})
			k.ScheduleFuncAt(t0+age, func() {
				if compacted {
					compact(r)
				}
				r.RelayData(signedData("/a/0"))
				r.RelayData(signedData("/b/1"))
			})
			k.Run(t0 + 3*SuppressTTL)
			want := uint64(0)
			if age == 2*SuppressTTL {
				want = 2
			}
			if rig.c.DataForwarded != want {
				t.Errorf("compacted %v, Data %v after the forward: %d relayed, want %d", compacted, age, rig.c.DataForwarded, want)
			}
		}
	}

	rig := newRelayRig(7)
	k, r := rig.k, &rig.r
	k.ScheduleFuncAt(t0, func() { r.Forward(&ndn.Interest{Name: ndn.ParseName("/a/0"), Nonce: 1}) })
	k.ScheduleFuncAt(t0+SuppressTTL, func() { r.Forward(&ndn.Interest{Name: ndn.ParseName("/a"), CanBePrefix: true, Nonce: 2}) })
	k.ScheduleFuncAt(t0+2*SuppressTTL+1, func() { r.RelayData(signedData("/a/0")) })
	k.Run(t0 + 4*SuppressTTL)
	if !r.forwarded["/a"].answered || r.forwarded["/a/0"].answered {
		t.Errorf("Data past the exact record's lifetime answered /a %v, /a/0 %v; want the prefix record only",
			r.forwarded["/a"].answered, r.forwarded["/a/0"].answered)
	}
}

// TestRelayTablesBoundedOverLongRun: with no housekeeping call, 10k
// unanswered forwards and 10k drawn nonces over 1,000 s keep the tables at or
// below twice the live set plus the compaction floor — compaction on
// insertion reclaims what lapsed — while TableSizes counts only what is live.
func TestRelayTablesBoundedOverLongRun(t *testing.T) {
	t.Parallel()
	rig := newRelayRig(8)
	k, r := rig.k, &rig.r
	const n = 10000
	maxHeld, maxLive := 0, 0
	for i := 0; i < n; i++ {
		k.ScheduleFuncAt(time.Duration(i)*100*time.Millisecond, func() {
			r.Forward(&ndn.Interest{Name: ndn.ParseName("/never").AppendSeq(i), Nonce: r.NewNonce()})
			forwarded, suppressed, nonces := r.TableSizes()
			maxLive = max(maxLive, forwarded+suppressed+nonces)
			maxHeld = max(maxHeld, len(r.forwarded)+len(r.suppressed)+len(r.nonces))
		})
	}
	k.Run(1000*time.Second + 2*SuppressTTL)
	if rig.c.InterestsForwarded != n {
		t.Fatalf("%d Interests forwarded, want %d", rig.c.InterestsForwarded, n)
	}
	// 10 forwards a second: 40 live records, 20 live nonces, 20 suppressed names.
	if maxLive == 0 || maxLive > 100 {
		t.Fatalf("live set peaked at %d entries, want about 80", maxLive)
	}
	if maxHeld > 2*maxLive+compactFloor {
		t.Errorf("tables peaked at %d entries, want <= 2 x %d live + %d", maxHeld, maxLive, compactFloor)
	}
}

// TestRelayPrefixCountGatesTheWalk: the count of CanBePrefix records follows
// insert, overwrite, compaction and Reset, and at zero a Data miss stops at
// the exact lookup — shown by planting a prefix record behind the count's
// back.
func TestRelayPrefixCountGatesTheWalk(t *testing.T) {
	rig := newRelayRig(3)
	k, r := rig.k, &rig.r
	prefix := &ndn.Interest{Name: ndn.ParseName("/p"), CanBePrefix: true, Nonce: 1}
	exact := &ndn.Interest{Name: ndn.ParseName("/p"), Nonce: 2}
	other := &ndn.Interest{Name: ndn.ParseName("/q"), CanBePrefix: true, Nonce: 3}
	step := func(what string, want int) {
		t.Helper()
		if int(r.prefixes) != want {
			t.Fatalf("%s: %d prefix records counted, want %d", what, r.prefixes, want)
		}
	}
	r.Forward(prefix)
	step("insert", 1)
	r.Forward(prefix)
	step("overwrite by a prefix record", 1)
	r.Forward(other)
	step("second insert", 2)
	r.Forward(exact)
	step("overwrite by an exact record", 1)
	k.Run(k.Now() + 2*SuppressTTL + 1)
	compact(r)
	step("compaction", 0)
	if len(r.forwarded) != 0 {
		t.Fatalf("%d records survive the compaction", len(r.forwarded))
	}
	r.Forward(prefix)
	r.Reset()
	step("Reset", 0)

	r.Forward(exact)
	d := signedData("/p/a/b/c")
	if allocs := testing.AllocsPerRun(100, func() { r.RelayData(d) }); allocs != 0 {
		t.Errorf("a Data miss allocates %v objects", allocs)
	}
	planted := &forwardRecord{r: r, key: "/p/a", at: k.Now(),
		prefix: &prefixRecord{name: ndn.ParseName("/p/a"), relayed: map[string]bool{}}}
	r.forwarded[planted.key] = planted
	if rec := r.match(d); rec != nil {
		t.Fatalf("with no prefix record counted, the walk ran and matched %q", rec.key)
	}
	r.prefixes++
	if rec := r.match(d); rec != planted {
		t.Fatalf("with a prefix record counted, matched %+v, want the planted record", rec)
	}
}

// TestMatchForwardedPicksLongestPrefix: when two forwarded CanBePrefix
// Interests both prefix a Data name, the Data answers the longer one — every
// time, where a range over the record map used to pick whichever came first.
// A longer record that is not CanBePrefix is passed over for a shorter one
// that is, and a component containing '/' does not fake a match.
func TestMatchForwardedPicksLongestPrefix(t *testing.T) {
	t.Parallel()
	data := signedData("/dapes/bitmap/c0ffee00/adv/3/1")
	for round := 0; round < 50; round++ {
		r := &newRelayRig(int64(round)).r
		for i, in := range []*ndn.Interest{
			{Name: ndn.ParseName("/dapes"), CanBePrefix: true},
			{Name: ndn.ParseName("/dapes/bitmap"), CanBePrefix: true},
			{Name: ndn.ParseName("/dapes/bitmap/c0ffee00"), CanBePrefix: true},
			{Name: ndn.ParseName("/dapes/bitmap/c0ffee00/adv")}, // exact-match only
			{Name: ndn.Name{"dapes", "bitmap", "c0ffee00", "adv/3"}, CanBePrefix: true},
		} {
			in.Nonce = uint32(i + 1)
			r.Forward(in)
		}
		if len(r.forwarded) != 5 {
			t.Fatalf("round %d: %d forwarded records, want 5", round, len(r.forwarded))
		}
		rec := r.match(data)
		if rec == nil || rec.key != "/dapes/bitmap/c0ffee00" {
			t.Fatalf("round %d: matched %+v, want the /dapes/bitmap/c0ffee00 record", round, rec)
		}
		r.RelayData(data)
		for key, rec := range r.forwarded {
			if rec.answered != (key == "/dapes/bitmap/c0ffee00") {
				t.Fatalf("round %d: record %s answered = %v", round, key, rec.answered)
			}
		}
	}
}

// TestReplyChurnDoesNotAllocate: a cache reply scheduled and then cancelled
// because the Data was overheard — the common fate of a reply on a dense
// medium — reuses its record and timer.
func TestReplyChurnDoesNotAllocate(t *testing.T) {
	k := sim.NewKernel(4)
	f := NewPureForwarder(k, phy.NewMedium(k, phy.Config{Range: 50}), geo.Stationary{}, Config{})
	d := signedData("/x/0")
	in := &ndn.Interest{Name: d.Name, Nonce: 7}
	f.onData(0, d)
	allocs := testing.AllocsPerRun(100, func() {
		f.onInterest(0, in)
		if len(f.relay.pending) != 1 {
			t.Fatal("no reply pending after a Content Store hit")
		}
		f.relay.CancelReply(d) // what the relay does on hearing Data
		f.onData(0, d)
	})
	if allocs != 0 {
		t.Errorf("reply churn allocates %v objects per round", allocs)
	}
	if len(f.relay.pending) != 0 || k.Pending() != 0 {
		t.Errorf("%d replies queued, %d kernel events pending after the last overheard Data", len(f.relay.pending), k.Pending())
	}
}

// TestPureForwarderStopSilences is "stopped means silent" for this package
// (docs/CONTRACTS.md): a forwarder stopped with a cache reply pending and two
// forwarded Interests in flight transmits nothing further, and nothing of it
// is left in the kernel once the sends already queued have fired as no-ops.
func TestPureForwarderStopSilences(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(5)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	f := NewPureForwarder(k, medium, geo.Stationary{}, Config{ForwardProb: 1})
	f.Start()
	cached := signedData("/x/0")
	k.ScheduleFuncAt(time.Second, func() { f.onData(0, cached) })
	var stoppedAt uint64
	k.ScheduleFuncAt(2*time.Second, func() {
		f.onInterest(0, &ndn.Interest{Name: cached.Name, Nonce: 1})
		a := &ndn.Interest{Name: ndn.ParseName("/y/1"), Nonce: 2}
		b := &ndn.Interest{Name: ndn.ParseName("/y/2"), Nonce: 3}
		f.onInterest(0, a)
		f.onInterest(0, b)
		if len(f.relay.pending) != 1 || !f.relay.InFlight(a) || !f.relay.InFlight(b) {
			t.Errorf("before Stop: %d replies pending, in flight %v and %v; want 1, true, true",
				len(f.relay.pending), f.relay.InFlight(a), f.relay.InFlight(b))
		}
		armed := k.Pending()
		f.relay.Stop()
		// The reply is cancelled on the spot; the two jittered forwards and
		// their two suppression armings stay queued.
		if got := k.Pending(); got != armed-1 || got != 4 {
			t.Errorf("Stop took kernel events %d -> %d, want 5 -> 4", armed, got)
		}
		stoppedAt = medium.Stats().Transmissions
	})
	k.Run(2*time.Second + 2*SuppressTTL)
	if got := medium.Stats().Transmissions; got != stoppedAt {
		t.Errorf("%d transmissions after Stop", got-stoppedAt)
	}
	if got := k.Pending(); got != 0 {
		t.Errorf("%d events still pending %v after Stop", got, 2*SuppressTTL)
	}
	if st := f.Stats(); st.CsReplies != 0 || st.InterestsForwarded != 0 {
		t.Errorf("a stopped forwarder counted sends: %+v", st)
	}
}

// TestStoppedForwarderIsSilent: a forwarder whose relay is stopped before
// any traffic hears nothing.
func TestStoppedForwarderIsSilent(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(25)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	f := NewPureForwarder(k, medium, geo.Stationary{At: geo.Point{X: 0}}, Config{ForwardProb: 1.0})
	f.Start()
	f.relay.Stop()
	r := medium.Attach(geo.Stationary{At: geo.Point{X: 10}})
	in := &ndn.Interest{Name: ndn.ParseName("/x/0"), Nonce: 9}
	k.ScheduleFunc(time.Second, func() { medium.Broadcast(r, in.Encode()) })
	k.Run(5 * time.Second)
	if f.Stats().InterestsHeard != 0 {
		t.Fatal("stopped forwarder processed traffic")
	}
}

// TestIdlePureForwarderArmsNothing: a started forwarder that hears nothing
// holds no event in the kernel — its tables need no timer to expire.
func TestIdlePureForwarderArmsNothing(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(9)
	f := NewPureForwarder(k, phy.NewMedium(k, phy.Config{Range: 50}), geo.Stationary{}, Config{})
	f.Start()
	if got := k.Pending(); got != 0 {
		t.Errorf("an idle started forwarder left %d events pending", got)
	}
}

// TestIdleForwarderAllocatesLittle: a forwarder that only hears beacons is a
// node, a radio and its handler — the relay's tables and the Content Store
// are made by the first write into each. A fresh Relay answers every read,
// Reset and Stop from nil tables, and a forwarder that never heard Data
// caches nothing.
func TestIdleForwarderAllocatesLittle(t *testing.T) {
	k := sim.NewKernel(10)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	var mob geo.Mobility = geo.Stationary{At: geo.Point{X: 10, Y: 10}}
	// Warm the medium: its radio list and grid grow by doubling, so past
	// a few thousand radios a hundred more rarely reallocate them.
	for range 4096 {
		medium.Attach(mob)
	}
	var f *PureForwarder
	allocs := testing.AllocsPerRun(100, func() {
		f = NewPureForwarder(k, medium, mob, Config{})
		f.Start()
	})
	// Three today: the forwarder, its radio and the handler closure.
	if allocs > 4 {
		t.Errorf("an idle forwarder costs %v objects, want <= 4 (the node, its radio, its handler)", allocs)
	}

	r := &f.relay
	if r.nonces != nil || r.forwarded != nil || r.suppressed != nil || r.pending != nil || f.cs != nil {
		t.Fatal("a forwarder that heard nothing holds tables")
	}
	in := &ndn.Interest{Name: ndn.ParseName("/x/0"), Nonce: 1}
	if r.Heard(1) || r.Suppressed(in) || r.InFlight(in) {
		t.Error("empty tables answered as if they held the Interest")
	}
	if fw, sup, non := r.TableSizes(); fw+sup+non != 0 {
		t.Errorf("empty tables report %d, %d, %d entries", fw, sup, non)
	}
	r.RelayData(signedData("/x/0"))
	r.CancelReply(signedData("/x/0"))
	r.Reset()
	r.Stop()
	if k.Pending() != 0 || medium.Stats().Transmissions != 0 {
		t.Errorf("%d events pending, %d transmissions; want none", k.Pending(), medium.Stats().Transmissions)
	}
	if r.nonces != nil || r.forwarded != nil || r.suppressed != nil || r.pending != nil || f.cs != nil {
		t.Error("reads, Reset and Stop made tables")
	}

	// The first write into each makes it.
	f.Start()
	f.onInterest(0, in)
	r.NewNonce()
	f.onData(0, signedData("/y/0"))
	f.onInterest(0, &ndn.Interest{Name: ndn.ParseName("/y/0"), Nonce: 2})
	if f.cs == nil || len(r.nonces) != 1 || len(r.pending) != 1 {
		t.Errorf("after the first writes: %d nonces, %d replies pending, CS made %v; want 1, 1, true", len(r.nonces), len(r.pending), f.cs != nil)
	}
}

// TestForwardedKeysOutliveTheirFrame: an Interest heard over the medium is
// decoded into its transmission's record, which the medium reuses once the
// frame is delivered, so what Forward keeps must be copied. One exact and
// one CanBePrefix Interest are forwarded (the exact one twice, so the second
// forward takes over the first record's key), then a hundred more Interests
// with names of the same lengths go on the air and rewrite every record;
// the tables must still hold the names that were forwarded.
func TestForwardedKeysOutliveTheirFrame(t *testing.T) {
	t.Parallel()
	const exactURI, prefixURI = "/keep/exact/0", "/keep/prefix"
	k := sim.NewKernel(11)
	medium := phy.NewMedium(k, phy.Config{Range: 50})
	sender := medium.Attach(geo.Stationary{})
	var c Counters
	r := NewRelay(k, medium, medium.Attach(geo.Stationary{At: geo.Point{X: 10}}), &c)
	r.Start()
	forwarding := true
	r.radio.SetHandler(func(f phy.Frame) {
		r.Deliver(f, func(_ int, in *ndn.Interest) {
			if forwarding {
				r.Forward(in)
			}
		}, nil)
	})

	nonce := uint32(0)
	send := func(at time.Duration, in ndn.Interest) {
		nonce++
		in.Nonce = nonce
		wire := in.Encode()
		k.ScheduleFuncAt(at, func() { medium.Broadcast(sender, wire) })
	}
	send(time.Millisecond, ndn.Interest{Name: ndn.ParseName(exactURI)})
	send(2*time.Millisecond, ndn.Interest{Name: ndn.ParseName(prefixURI), CanBePrefix: true})
	send(3*time.Millisecond, ndn.Interest{Name: ndn.ParseName(exactURI)})
	k.Run(100 * time.Millisecond)
	forwarding = false
	for i := range 120 {
		send(100*time.Millisecond+time.Duration(i)*time.Millisecond, ndn.Interest{Name: ndn.Name{"junk", ndn.Component(fmt.Sprintf("%05d", i)), "9"}})
		send(100*time.Millisecond+time.Duration(i)*time.Millisecond+500*time.Microsecond, ndn.Interest{Name: ndn.Name{"junk", ndn.Component(fmt.Sprintf("%06d", i))}, CanBePrefix: true})
	}
	k.Run(time.Second)
	if heard := r.radio.Received; heard != 243 {
		t.Fatalf("the relay heard %d frames, want the 243 sent", heard)
	}

	if len(r.forwarded) != 2 || c.InterestsForwarded != 3 {
		t.Fatalf("%d forward records after %d forwards, want 2 after 3", len(r.forwarded), c.InterestsForwarded)
	}
	for key, rec := range r.forwarded {
		if got, ok := r.forwarded[string([]byte(key))]; !ok || got != rec || rec.key != key {
			t.Errorf("record %q (key %q) is not found by its own bytes", key, rec.key)
		}
		if key != exactURI && key != prefixURI {
			t.Errorf("forward record keyed %q, want %s or %s", key, exactURI, prefixURI)
		}
	}
	if pr := r.forwarded[prefixURI]; pr == nil || pr.prefix == nil || !pr.prefix.name.Equal(ndn.ParseName(prefixURI)) {
		t.Fatalf("prefix record %+v does not hold the name %s", pr, prefixURI)
	}
	r.RelayData(signedData(exactURI))
	r.RelayData(signedData(prefixURI + "/reply"))
	k.Run(k.Now() + 100*time.Millisecond) // the relayed Data's jitter
	if c.DataForwarded != 2 || c.ForwardedAnswered != 2 {
		t.Errorf("counters %+v, want Data relayed for both records", c)
	}
}
