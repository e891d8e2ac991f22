package multihop

import (
	"fmt"
	"slices"
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

// compact expires the lapsed entries of the relay's forward table now, as
// its next forward would.
func compact(r *Relay) { r.fwd.expire(r.k.Now()) }

// records returns the relay's forward records by name URI: the map the
// forward table replaced.
func records(r *Relay) map[string]*forwardEntry {
	out := map[string]*forwardEntry{}
	if r.fwd != nil {
		r.fwd.latest(func(e *forwardEntry) {
			if e.record {
				out[string(r.fwd.key(e))] = e
			}
		})
	}
	return out
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
			k.ScheduleFuncAt(at, func() {
				suppressed, inFlight := r.Check(in)
				got[at] = probe{inFlight, suppressed}
			})
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
	if recs := records(r); !recs["/a"].answered || recs["/a/0"].answered {
		t.Errorf("Data past the exact record's lifetime answered /a %v, /a/0 %v; want the prefix record only",
			recs["/a"].answered, recs["/a/0"].answered)
	}
}

// TestRelayTablesBoundedOverLongRun: with no housekeeping call, 10k
// unanswered forwards and 10k drawn nonces over 1,000 s keep the tables at or
// below twice the live set — expiry on
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
			maxHeld = max(maxHeld, int(r.fwd.count)+int(r.nonces.count))
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
	if maxHeld > 2*maxLive {
		t.Errorf("tables peaked at %d entries, want <= 2 x %d live", maxHeld, maxLive)
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
		if int(r.fwd.prefixes) != want {
			t.Fatalf("%s: %d prefix records counted, want %d", what, r.fwd.prefixes, want)
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
	if n := len(records(r)); n != 0 {
		t.Fatalf("%d records survive the compaction", n)
	}
	r.Forward(prefix)
	r.Reset()
	step("Reset", 0)

	r.Forward(exact)
	d := signedData("/p/a/b/c")
	if allocs := testing.AllocsPerRun(100, func() { r.RelayData(d) }); allocs != 0 {
		t.Errorf("a Data miss allocates %v objects", allocs)
	}
	r.Forward(&ndn.Interest{Name: ndn.ParseName("/p/a"), CanBePrefix: true, Nonce: 4})
	planted := records(r)["/p/a"]
	r.fwd.prefixes--
	if rec := r.fwd.match(d, k.Now()); rec != nil {
		t.Fatalf("with no prefix record counted, the walk ran and matched %q", r.fwd.key(rec))
	}
	r.fwd.prefixes++
	if rec := r.fwd.match(d, k.Now()); rec != planted {
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
		if n := len(records(r)); n != 5 {
			t.Fatalf("round %d: %d forwarded records, want 5", round, n)
		}
		rec := r.fwd.match(data, r.k.Now())
		if rec == nil || string(r.fwd.key(rec)) != "/dapes/bitmap/c0ffee00" {
			t.Fatalf("round %d: matched %+v, want the /dapes/bitmap/c0ffee00 record", round, rec)
		}
		r.RelayData(data)
		for key, rec := range records(r) {
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
		_, aInFlight := f.relay.Check(a)
		_, bInFlight := f.relay.Check(b)
		if len(f.relay.pending) != 1 || !aInFlight || !bInFlight {
			t.Errorf("before Stop: %d replies pending, in flight %v and %v; want 1, true, true",
				len(f.relay.pending), aInFlight, bInFlight)
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
	if r.nonces != nil || r.fwd != nil || r.pending != nil || f.cs != nil {
		t.Fatal("a forwarder that heard nothing holds tables")
	}
	in := &ndn.Interest{Name: ndn.ParseName("/x/0"), Nonce: 1}
	if suppressed, inFlight := r.Check(in); r.Heard(1) || suppressed || inFlight {
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
	if r.nonces != nil || r.fwd != nil || r.pending != nil || f.cs != nil {
		t.Error("reads, Reset and Stop made tables")
	}

	// The first write into each makes it.
	f.Start()
	f.onInterest(0, in)
	r.NewNonce()
	f.onData(0, signedData("/y/0"))
	f.onInterest(0, &ndn.Interest{Name: ndn.ParseName("/y/0"), Nonce: 2})
	if f.cs == nil || r.nonces == nil || r.nonces.count != 1 || len(r.pending) != 1 {
		t.Errorf("after the first writes: %d nonces, %d replies pending, CS made %v; want 1, 1, true", r.nonces.count, len(r.pending), f.cs != nil)
	}
}

// TestForwardedKeysOutliveTheirFrame: an Interest heard over the medium is
// decoded into its transmission's record, and sent in a wire from the
// medium's pool; the medium reuses both once the frame is delivered, so what
// Forward keeps must be copied, and so must what it sends. One exact and one
// CanBePrefix Interest are forwarded (the exact one twice, so the second
// forward takes over the first record's key), each heard wire going back to
// the pool, where the next send takes it, before the forward's jitter is
// up; then a hundred more Interests with names of the same lengths go on
// the air and rewrite every record and wire. The forwards must go out byte
// for byte as they were heard, and the tables must still hold the names
// that were forwarded.
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
	var forwarded, sent []string // the relay's frames as an ear hears them; the first three sends
	var wires [][]byte           // the wire each send took, by nonce-1
	reused := 0                  // forwards heard after their heard wire was taken again
	medium.Attach(geo.Stationary{At: geo.Point{X: 20}}).SetHandler(func(f phy.Frame) {
		if f.From != r.radio.ID() {
			return
		}
		forwarded = append(forwarded, string(f.Payload))
		if in := f.Packet().Interest(); in != nil && int(in.Nonce) < len(wires) {
			heard := wires[in.Nonce-1]
			for _, w := range wires[in.Nonce:] {
				if &w[:1][0] == &heard[:1][0] {
					reused++
					break
				}
			}
		}
	})

	nonce := uint32(0)
	send := func(at time.Duration, in ndn.Interest) {
		nonce++
		in.Nonce = nonce
		if nonce <= 3 {
			sent = append(sent, string(in.AppendEncode(nil)))
		}
		k.ScheduleFuncAt(at, func() {
			wire := in.AppendEncode(medium.Wire(in.EncodedLen()))
			wires = append(wires, wire)
			medium.BroadcastOwned(sender, wire)
		})
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

	recs := records(&r)
	if len(recs) != 2 || c.InterestsForwarded != 3 {
		t.Fatalf("%d forward records after %d forwards, want 2 after 3", len(recs), c.InterestsForwarded)
	}
	slices.Sort(forwarded)
	slices.Sort(sent)
	if !slices.Equal(forwarded, sent) {
		t.Fatalf("the relay forwarded %x, want the heard Interests %x", forwarded, sent)
	}
	if reused == 0 {
		t.Fatal("no forward went out after the wire it was heard in was handed out again")
	}
	for key, rec := range recs {
		if got := r.fwd.lookup(string([]byte(key))); got != rec || string(r.fwd.key(rec)) != key {
			t.Errorf("record %q (key %q) is not found by its own bytes", key, r.fwd.key(rec))
		}
		if key != exactURI && key != prefixURI {
			t.Errorf("forward record keyed %q, want %s or %s", key, exactURI, prefixURI)
		}
	}
	if pr := recs[prefixURI]; pr == nil || pr.prefix == nil || !pr.prefix.name.Equal(ndn.ParseName(prefixURI)) {
		t.Fatalf("prefix record %+v does not hold the name %s", pr, prefixURI)
	}
	r.RelayData(signedData(exactURI))
	r.RelayData(signedData(prefixURI + "/reply"))
	k.Run(k.Now() + 100*time.Millisecond) // the relayed Data's jitter
	if c.DataForwarded != 2 || c.ForwardedAnswered != 2 {
		t.Errorf("counters %+v, want Data relayed for both records", c)
	}
}

// TestRelayResetKeepsPendingArming pins what a cold restart inside
// SuppressTTL of an unanswered forward does: Reset wipes the forward record
// and every suppression, but the forward's arming is already scheduled, so
// the name is still suppressed from the forward+SuppressTTL to
// forward+2·SuppressTTL. The name forwarded again after the Reset is a new
// record: the old arming suppresses the name while the new forward is in
// flight, Data for the new forward lifts it, and the new forward arms its own.
// Probes run at each boundary instant, scheduled after the forwards as a
// frame's delivery is.
func TestRelayResetKeepsPendingArming(t *testing.T) {
	t.Parallel()
	const t0 = time.Second
	type probe struct {
		inFlight, suppressed       bool
		forwarded, suppressedNames int
	}
	in := &ndn.Interest{Name: ndn.ParseName("/reset/0"), Nonce: 1}
	// run plays script and, from an event at from scheduled after it,
	// schedules the probes.
	run := func(t *testing.T, script map[time.Duration]func(r *Relay), from time.Duration, probes []time.Duration) map[time.Duration]probe {
		rig := newRelayRig(13)
		k, r := rig.k, &rig.r
		got := map[time.Duration]probe{}
		for at, step := range script {
			k.ScheduleFuncAt(at, func() { step(r) })
		}
		k.ScheduleFuncAt(from, func() {
			for _, at := range probes {
				k.ScheduleFuncAt(at, func() {
					fw, sup, _ := r.TableSizes()
					suppressed, inFlight := r.Check(in)
					got[at] = probe{inFlight, suppressed, fw, sup}
				})
			}
		})
		k.Run(t0 + 5*SuppressTTL)
		return got
	}
	check := func(t *testing.T, got, want map[time.Duration]probe) {
		t.Helper()
		for at, w := range want {
			if got[at] != w {
				t.Errorf("at forward+%v: %+v, want %+v", at-t0, got[at], w)
			}
		}
	}
	forward := func(r *Relay) { r.Forward(in) }
	reset := func(r *Relay) { r.Reset() }
	answer := func(r *Relay) { r.RelayData(signedData("/reset/0")) }
	const S = SuppressTTL

	t.Run("no re-forward", func(t *testing.T) {
		got := run(t, map[time.Duration]func(*Relay){t0: forward, t0 + S/2: reset}, t0,
			[]time.Duration{t0 + S/2 - 1, t0 + S - 1, t0 + S, t0 + 2*S - 1, t0 + 2*S})
		check(t, got, map[time.Duration]probe{
			t0 + S/2 - 1: {inFlight: true, forwarded: 1},
			t0 + S - 1:   {},
			t0 + S:       {suppressed: true, suppressedNames: 1},
			t0 + 2*S - 1: {suppressed: true, suppressedNames: 1},
			t0 + 2*S:     {},
		})
	})
	t.Run("re-forward before the old arming", func(t *testing.T) {
		// Forwarded again at 3S/4: in flight to 7S/4, and the old arming
		// suppresses the name from S until Data for the new forward at
		// 3S/2 lifts it; the answered forward arms nothing.
		got := run(t, map[time.Duration]func(*Relay){t0: forward, t0 + S/2: reset, t0 + 3*S/4: forward, t0 + 3*S/2: answer}, t0+3*S/4,
			[]time.Duration{t0 + S - 1, t0 + S, t0 + 3*S/2 - 1, t0 + 3*S/2, t0 + 7*S/4, t0 + 11*S/4, t0 + 11*S/4 + 1})
		check(t, got, map[time.Duration]probe{
			t0 + S - 1:      {inFlight: true, forwarded: 1},
			t0 + S:          {inFlight: true, suppressed: true, forwarded: 1, suppressedNames: 1},
			t0 + 3*S/2 - 1:  {inFlight: true, suppressed: true, forwarded: 1, suppressedNames: 1},
			t0 + 3*S/2:      {forwarded: 1},
			t0 + 7*S/4:      {forwarded: 1},
			t0 + 11*S/4:     {forwarded: 1},
			t0 + 11*S/4 + 1: {},
		})
	})
	t.Run("re-forward after the old arming", func(t *testing.T) {
		// Forwarded again at 3S/2, while the old arming's suppression
		// runs to 2S: in flight and suppressed at once, then suppressed
		// again by the new forward's own arming from 5S/2 to 7S/2.
		got := run(t, map[time.Duration]func(*Relay){t0: forward, t0 + S/2: reset, t0 + 3*S/2: forward}, t0+3*S/2,
			[]time.Duration{t0 + 3*S/2, t0 + 2*S - 1, t0 + 2*S, t0 + 5*S/2 - 1, t0 + 5*S/2, t0 + 7*S/2 - 1, t0 + 7*S/2, t0 + 7*S/2 + 1})
		check(t, got, map[time.Duration]probe{
			t0 + 3*S/2:     {inFlight: true, suppressed: true, forwarded: 1, suppressedNames: 1},
			t0 + 2*S - 1:   {inFlight: true, suppressed: true, forwarded: 1, suppressedNames: 1},
			t0 + 2*S:       {inFlight: true, forwarded: 1},
			t0 + 5*S/2 - 1: {inFlight: true, forwarded: 1},
			t0 + 5*S/2:     {suppressed: true, forwarded: 1, suppressedNames: 1},
			t0 + 7*S/2 - 1: {suppressed: true, forwarded: 1, suppressedNames: 1},
			t0 + 7*S/2:     {forwarded: 1},
			t0 + 7*S/2 + 1: {},
		})
	})
}
