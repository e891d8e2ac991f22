package multihop

import (
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

const testTTL = 2 * time.Second

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
	rig.r = NewRelay(rig.k, rig.medium, rig.medium.Attach(geo.Stationary{}), 20*time.Millisecond, testTTL, &rig.c)
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
	k.ScheduleAt(t0, func() {
		r.Forward(in)
		// Arrivals are scheduled after the forward, as a frame's delivery is.
		for _, at := range []time.Duration{t0 + testTTL - 1, t0 + testTTL, t0 + 2*testTTL - 1, t0 + 2*testTTL} {
			k.ScheduleAt(at, func() { got[at] = probe{r.InFlight(in), r.Suppressed(in)} })
		}
	})
	k.Run(t0 + 3*testTTL)
	want := map[time.Duration]probe{
		t0 + testTTL - 1:   {inFlight: true},
		t0 + testTTL:       {suppressed: true},
		t0 + 2*testTTL - 1: {suppressed: true},
		t0 + 2*testTTL:     {},
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
	k.ScheduleAt(time.Second, func() {
		r.Forward(&ndn.Interest{Name: ndn.ParseName("/exact/0"), Nonce: 1})
		r.Forward(&ndn.Interest{Name: ndn.ParseName("/prefix"), CanBePrefix: true, Nonce: 2})
	})
	k.ScheduleAt(time.Second+100*time.Millisecond, func() {
		for _, uri := range []string{"/exact/0", "/exact/0", "/exact/0/longer", "/prefix/a", "/prefix/b", "/prefix/a", "/prefix", "/other"} {
			r.RelayData(signedData(uri))
		}
	})
	k.Run(time.Second + 2*testTTL)
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
		for _, age := range []time.Duration{2 * testTTL, 2*testTTL + 1} {
			rig := newRelayRig(6)
			k, r := rig.k, &rig.r
			k.ScheduleAt(t0, func() {
				r.Forward(&ndn.Interest{Name: ndn.ParseName("/a/0"), Nonce: 1})
				r.Forward(&ndn.Interest{Name: ndn.ParseName("/b"), CanBePrefix: true, Nonce: 2})
			})
			k.ScheduleAt(t0+age, func() {
				if compacted {
					compact(r)
				}
				r.RelayData(signedData("/a/0"))
				r.RelayData(signedData("/b/1"))
			})
			k.Run(t0 + 3*testTTL)
			want := uint64(0)
			if age == 2*testTTL {
				want = 2
			}
			if rig.c.DataForwarded != want {
				t.Errorf("compacted %v, Data %v after the forward: %d relayed, want %d", compacted, age, rig.c.DataForwarded, want)
			}
		}
	}

	rig := newRelayRig(7)
	k, r := rig.k, &rig.r
	k.ScheduleAt(t0, func() { r.Forward(&ndn.Interest{Name: ndn.ParseName("/a/0"), Nonce: 1}) })
	k.ScheduleAt(t0+testTTL, func() { r.Forward(&ndn.Interest{Name: ndn.ParseName("/a"), CanBePrefix: true, Nonce: 2}) })
	k.ScheduleAt(t0+2*testTTL+1, func() { r.RelayData(signedData("/a/0")) })
	k.Run(t0 + 4*testTTL)
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
		k.ScheduleAt(time.Duration(i)*100*time.Millisecond, func() {
			r.Forward(&ndn.Interest{Name: ndn.ParseName("/never").AppendSeq(i), Nonce: r.NewNonce()})
			forwarded, suppressed, nonces := r.TableSizes()
			maxLive = max(maxLive, forwarded+suppressed+nonces)
			maxHeld = max(maxHeld, len(r.forwarded)+len(r.suppressed)+len(r.nonces))
		})
	}
	k.Run(1000*time.Second + 2*testTTL)
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
	k.Run(k.Now() + 2*testTTL + 1)
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
	f := NewPureForwarder(k, medium, geo.Stationary{}, Config{ForwardProb: 1, SuppressTTL: testTTL})
	f.Start()
	cached := signedData("/x/0")
	k.ScheduleAt(time.Second, func() { f.onData(0, cached) })
	var stoppedAt uint64
	k.ScheduleAt(2*time.Second, func() {
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
		f.Stop()
		// The reply is cancelled on the spot; the two jittered forwards and
		// their two suppression armings stay queued.
		if got := k.Pending(); got != armed-1 || got != 4 {
			t.Errorf("Stop took kernel events %d -> %d, want 5 -> 4", armed, got)
		}
		stoppedAt = medium.Stats().Transmissions
	})
	k.Run(2*time.Second + 2*testTTL)
	if got := medium.Stats().Transmissions; got != stoppedAt {
		t.Errorf("%d transmissions after Stop", got-stoppedAt)
	}
	if got := k.Pending(); got != 0 {
		t.Errorf("%d events still pending %v after Stop", got, 2*testTTL)
	}
	if st := f.Stats(); st.CsReplies != 0 || st.InterestsForwarded != 0 {
		t.Errorf("a stopped forwarder counted sends: %+v", st)
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
