package multihop

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dapes/internal/ndn"
	"dapes/internal/sim"
)

// forwardModel is the forward table as two maps: forward records by name
// URI, and suppressed names by URI with the time their suppression ends.
// Each record arms its own suppression through a kernel event, which writes
// the map whether or not the record is still in it.
type forwardModel struct {
	k                 *sim.Kernel
	forwarded         map[string]*modelRecord
	suppressed        map[string]time.Duration
	answered, relayed uint64
}

type modelRecord struct {
	m        *forwardModel
	key      string
	at       time.Duration
	answered bool
	prefix   bool            // a CanBePrefix record
	name     ndn.Name        // its name
	relayed  map[string]bool // a CanBePrefix record's relayed Data names
}

func (m *forwardModel) forward(in *ndn.Interest) {
	rec := &modelRecord{m: m, key: in.NameKey(), at: m.k.Now(), prefix: in.CanBePrefix, name: in.Name}
	if in.CanBePrefix {
		rec.relayed = map[string]bool{}
	}
	m.forwarded[rec.key] = rec
	m.k.ScheduleFunc(SuppressTTL, func() {
		if !rec.answered {
			m.suppressed[rec.key] = m.k.Now() + SuppressTTL
		}
	})
}

func (m *forwardModel) fresh(rec *modelRecord) bool { return m.k.Now()-rec.at <= 2*SuppressTTL }

func (m *forwardModel) match(d *ndn.Data) *modelRecord {
	key := d.NameKey()
	if rec, ok := m.forwarded[key]; ok && m.fresh(rec) {
		return rec
	}
	for len(key) > 1 {
		key = key[:strings.LastIndexByte(key, '/')]
		if key == "" {
			key = "/"
		}
		if rec, ok := m.forwarded[key]; ok && rec.prefix && m.fresh(rec) && rec.name.IsPrefixOf(d.Name) {
			return rec
		}
	}
	return nil
}

func (m *forwardModel) relayData(d *ndn.Data) {
	rec := m.match(d)
	if rec == nil {
		return
	}
	if rec.prefix {
		if rec.relayed[d.NameKey()] {
			return
		}
		rec.relayed[d.NameKey()] = true
	} else if rec.answered {
		return
	}
	if !rec.answered {
		rec.answered = true
		m.answered++
	}
	delete(m.suppressed, rec.key)
	m.relayed++
}

func (m *forwardModel) inFlight(in *ndn.Interest) bool {
	rec, ok := m.forwarded[in.NameKey()]
	return ok && !rec.answered && m.k.Now()-rec.at < SuppressTTL
}

func (m *forwardModel) isSuppressed(in *ndn.Interest) bool {
	until, ok := m.suppressed[in.NameKey()]
	return ok && m.k.Now() < until
}

func (m *forwardModel) sizes() (forwarded, suppressed int) {
	for _, rec := range m.forwarded {
		if m.fresh(rec) {
			forwarded++
		}
	}
	for _, until := range m.suppressed {
		if m.k.Now() < until {
			suppressed++
		}
	}
	return forwarded, suppressed
}

// forwardPool returns the Interest names and the Data names the
// forward-table checks use, 32 of each: prefix chains and Data names that
// extend them, a component that holds '/' (its URI is another name's),
// names long enough to grow the key ring, the root, and for each index size
// a table of up to 64 ring entries has, names whose probes start at its last
// cell and so collide and wrap.
func forwardPool() (interests, data []ndn.Name) {
	interests = []ndn.Name{
		ndn.ParseName("/"), ndn.ParseName("/a"), ndn.ParseName("/a/b"), ndn.ParseName("/a/b/c"),
		{"a/b", "c"}, ndn.ParseName("/a/x"), ndn.ParseName("/d"), ndn.ParseName("/d/e"),
		{"long", ndn.Component(strings.Repeat("l", 300))}, {"long", ndn.Component(strings.Repeat("m", 120))}, ndn.ParseName("/e/f/g/h"),
	}
	for n := ringFirst; n <= 64; n *= 2 {
		m, found := 3*n, 0
		for i := 0; found < 4; i++ {
			name := ndn.Name{"c", ndn.Component(fmt.Sprint(i))}
			if home(keyHash(name.String()), m) == m-1 && !slices.ContainsFunc(interests, name.Equal) {
				interests = append(interests, name)
				found++
			}
		}
	}
	interests = append(interests, ndn.Name{})
	data = append(data, interests[:16]...)
	for _, uri := range []string{"/a/b/c/d", "/a/b/z", "/a/y", "/a/x/1", "/d/e/f", "/d/f", "/z", "/a/b/c/d/e"} {
		data = append(data, ndn.ParseName(uri))
	}
	data = append(data, ndn.Name{"a/b", "c", "d"}, ndn.Name{"a", "b/c"}, ndn.Name{"a/b"})
	for len(data) < 32 {
		data = append(data, interests[len(data)])
	}
	return interests, data
}

// forwardNames is forwardPool, built once.
var forwardNames = sync.OnceValues(forwardPool)

// forwardSteps are the clock steps an operation may take: the lifetimes'
// edges, a nanosecond to either side, and half the suppression timer.
var forwardSteps = [8]time.Duration{1, SuppressTTL - 1, SuppressTTL, SuppressTTL + 1,
	2*SuppressTTL - 1, 2 * SuppressTTL, 2*SuppressTTL + 1, SuppressTTL / 2}

// checkForwardOps runs one operation per byte against a started relay and
// against forwardModel on the same kernel, and after each operation asks
// both about every pooled name: Check's two answers and its count of
// suppressions, the record a Data name matches, and TableSizes. The top
// three bits pick the operation: forward (two values in eight), forward as
// CanBePrefix, relay Data, a clock step from forwardSteps, a step of 0 to
// 3.1 s in 100 ms, a step of 0 to 31 ms, or Reset; the low five pick the
// name or the step.
func checkForwardOps(t testing.TB, ops []byte) {
	t.Helper()
	rig := newRelayRig(1)
	k, r := rig.k, &rig.r
	m := &forwardModel{k: k, forwarded: map[string]*modelRecord{}, suppressed: map[string]time.Duration{}}
	names, dataNames := forwardNames()
	interests := make([]*ndn.Interest, len(names))
	prefixes := make([]*ndn.Interest, len(names))
	for i, name := range names {
		interests[i] = &ndn.Interest{Name: name, Nonce: uint32(i)}
		prefixes[i] = &ndn.Interest{Name: name, CanBePrefix: true, Nonce: uint32(i)}
	}
	data := make([]*ndn.Data, len(dataNames))
	for i, name := range dataNames {
		data[i] = &ndn.Data{Name: name}
		data[i].SignDigest()
	}
	fail := func(i int, format string, args ...any) {
		t.Helper()
		t.Fatalf("after ops %x, at %v: %s", ops[:i+1], k.Now(), fmt.Sprintf(format, args...))
	}
	var counted uint64 // suppressions Check has reported
	for i, b := range ops {
		low := int(b & 31)
		switch b >> 5 {
		case 0, 1:
			r.Forward(interests[low])
			m.forward(interests[low])
		case 2:
			r.Forward(prefixes[low])
			m.forward(prefixes[low])
		case 3:
			r.RelayData(data[low])
			m.relayData(data[low])
		case 4:
			k.Run(k.Now() + forwardSteps[low&7])
		case 5:
			k.Run(k.Now() + time.Duration(low)*100*time.Millisecond)
		case 6:
			k.Run(k.Now() + time.Duration(low)*time.Millisecond)
		case 7:
			r.Reset()
			clear(m.forwarded)
			clear(m.suppressed)
		}
		if rig.c.ForwardedAnswered != m.answered {
			fail(i, "%d forwards answered, want %d", rig.c.ForwardedAnswered, m.answered)
		}
		for _, in := range interests {
			suppressed, inFlight := r.Check(in)
			if want := m.inFlight(in); inFlight != want {
				fail(i, "Check(%s) in flight = %v, want %v", in.Name, inFlight, want)
			}
			if want := m.isSuppressed(in); suppressed != want {
				fail(i, "Check(%s) suppressed = %v, want %v", in.Name, suppressed, want)
			}
			if suppressed {
				counted++
			}
			if rig.c.InterestsSuppressed != counted {
				fail(i, "%d Interests counted suppressed, want %d", rig.c.InterestsSuppressed, counted)
			}
		}
		for _, d := range data {
			got, want := "", ""
			if r.fwd != nil {
				if e := r.fwd.match(d, k.Now()); e != nil {
					got = string(r.fwd.key(e))
				}
			}
			if rec := m.match(d); rec != nil {
				want = rec.key
			}
			if got != want {
				fail(i, "Data %s matches %q, want %q", d.Name, got, want)
			}
		}
		gotF, gotS, _ := r.TableSizes()
		if wantF, wantS := m.sizes(); gotF != wantF || gotS != wantS {
			fail(i, "TableSizes counts %d records, %d suppressed names; want %d, %d", gotF, gotS, wantF, wantS)
		}
	}
	// Relayed Data goes on the air after its jitter.
	k.Run(k.Now() + TransmissionWindow)
	if rig.c.DataForwarded != m.relayed {
		t.Fatalf("%d Data relayed, want %d", rig.c.DataForwarded, m.relayed)
	}
}

// TestForwardTableMatchesMaps: the forward table answers Check, the match
// of Data and TableSizes as the maps it replaced did, over ages of exactly
// SuppressTTL and 2·SuppressTTL and a nanosecond to either side,
// re-forwards, CanBePrefix records, names whose probes collide and wrap in
// the index, growth of the ring and of the key ring, and Reset with armings
// pending.
func TestForwardTableMatchesMaps(t *testing.T) {
	t.Parallel()
	const (
		fwd    = 0 << 5
		prefix = 2 << 5
		answer = 3 << 5
		edge   = 4 << 5 // forwardSteps
		reset  = 7 << 5
	)
	step := func(d time.Duration) byte { return 5<<5 | byte(d/(100*time.Millisecond)) }
	// Every name, twice over within a window: the ring and the key ring
	// grow; then a steady trickle wraps them; Reset keeps what they hold.
	var growth []byte
	for i := range 64 {
		growth = append(growth, fwd|byte(i%32))
	}
	for i := range 96 {
		growth = append(growth, step(300*time.Millisecond), fwd|byte(i%32))
	}
	growth = append(growth, reset, fwd|9)
	fixed := map[string][]byte{
		// Unanswered: in flight to SuppressTTL, then suppressed to
		// 2·SuppressTTL; the record answers Data up to 2·SuppressTTL.
		"edges": {fwd | 1, edge | 1, edge, edge | 0, edge | 1, edge, fwd | 6, edge | 2, answer | 1, fwd | 2, edge | 6, answer | 2},
		// Expired by a forward at exactly 2·SuppressTTL, then Data.
		"expire edge": {fwd | 1, edge | 5, fwd | 6, answer | 1, edge, fwd | 7, answer | 1},
		// Forwarded again after the arming: the suppression carries over;
		// again before it: the old arming suppresses the new record's name.
		"re-forward": {fwd | 3, edge | 2, fwd | 3, edge | 7, fwd | 3, edge | 7, edge | 7, fwd | 3, edge | 2, answer | 3},
		// A prefix walk across records of one URI from different names.
		"prefix": {prefix | 1, prefix | 2, fwd | 3, prefix | 4, answer | 16, answer | 18, answer | 26, answer | 27, fwd | 2, answer | 16, edge | 6, answer | 3},
		// Reset with armings pending, then forwards of the same names.
		"reset":  {fwd | 1, prefix | 2, edge | 7, reset, edge | 7, fwd | 1, edge | 7, fwd | 2, answer | 2, edge | 2, reset, edge | 5},
		"growth": growth,
	}
	for name, ops := range fixed {
		t.Run(name, func(t *testing.T) { checkForwardOps(t, ops) })
	}
	rng := sim.NewStream(53, 0, 0)
	ops := make([]byte, 300)
	for range 100 {
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		checkForwardOps(t, ops)
	}
}

// FuzzForwardTable runs arbitrary operation sequences (checkForwardOps)
// against the map model.
func FuzzForwardTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x81, 0x80, 0x41, 0x60, 0x84, 0xe0, 0x82, 1})
	f.Add([]byte{0x41, 0x42, 0x03, 0x70, 0x72, 0x7a, 0x86, 0x62})
	f.Fuzz(func(t *testing.T, ops []byte) { checkForwardOps(t, ops) })
}

// TestForwardTableDoesNotAllocate: a relay that has forwarded at a steady
// rate for a few lifetimes forwards, looks up and relays Data without
// allocating.
func TestForwardTableDoesNotAllocate(t *testing.T) {
	rig := newRelayRig(14)
	k, r := rig.k, &rig.r
	names := make([]*ndn.Interest, 64)
	data := make([]*ndn.Data, len(names))
	for i := range names {
		names[i] = &ndn.Interest{Name: ndn.ParseName("/steady").AppendSeq(i), Nonce: uint32(i)}
		data[i] = signedData(names[i].Name.String())
	}
	i := 0
	round := func() {
		k.Run(k.Now() + 50*time.Millisecond)
		in := names[i%len(names)]
		if suppressed, inFlight := r.Check(in); !suppressed && !inFlight {
			r.Forward(in)
		}
		if i%3 == 0 {
			r.RelayData(data[(i+len(names)-5)%len(names)])
		}
		i++
	}
	for range 4 * 2 * SuppressTTL / (50 * time.Millisecond) {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Errorf("a steady forward rate allocates %v objects per round", allocs)
	}
}
