// Package phy emulates the shared wireless broadcast medium used by every
// experiment: an IEEE 802.11b-style channel with a configurable transmission
// range, data rate, per-receiver loss probability, and a collision model in
// which overlapping receptions at the same radio garble each other.
//
// The paper's evaluation (Section VI-B) uses IEEE 802.11b at 2.4 GHz with an
// 11 Mbps data rate, a 10% loss rate, and WiFi ranges swept from 20 m to
// 100 m; those are the defaults here.
//
// Receiver lookup is indexed: the medium keeps every radio's last synced
// position in a geo.Grid (cell edge = radio range) and asks it for the radios
// stored within range plus the drift accrued since that sync, so a broadcast
// computes positions only for radios that can be in range instead of scanning
// all of them. The brute-force scan is retained as IndexNaive, and both
// implementations are byte-identical by construction — the exact-distance
// test decides membership in both, over ascending IDs, so the same events in
// the same order. The golden-trace suite (internal/experiment,
// TestGridMatchesNaiveTrace and TestGridMatchesNaiveAtDriftBoundary here)
// enforces it. A radio that sends again within one drift window answers
// from a neighbour list of its own instead (a Verlet list: the radios within
// the range plus a skin, in ID order, and their distances when it was
// built), which settles most entries by a bound on how far both ends can
// have moved and leaves only those near the edge to the exact test. See
// docs/PERFORMANCE.md.
//
// Delivery follows the zero-copy wire path: one broadcast creates one
// immutable frame whose NDN parse is memoized (Frame.Packet), so the k
// receivers of a transmission share a single decode instead of k independent
// re-parses, an Interest decodes into the pooled transmission record at no
// allocation, and a Data the sender holds as a record (BroadcastData) is
// handed to every receiver as that record, with no decode at all. See the
// Frame docs for the immutability and lifetime contract this relies on.
//
// A transmission completes in one kernel event at its end: the event
// finalizes every reception in candidate order, handing each surviving frame
// to its receiver's handler, and then reports to a BroadcastNotify sender.
package phy

import (
	"fmt"
	"math"
	"time"

	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/sim"
)

// Frame is one on-air transmission delivered to a radio.
//
// Wire-path contract (docs/PERFORMANCE.md): a frame is immutable once it is
// on the air. The Payload slice and the shared decoded packet behind
// Packet() are the same objects for every receiver of the broadcast —
// handlers must only read them. The contract is safe to rely on because the
// sim kernel is single-threaded per trial and trials share no state.
//
// One rule says how long a frame's contents live. A heard Interest — its
// wire, Name, components, NameKey and AppParams — lives until its
// transmission's completion event returns, after every receiver's handler:
// it is decoded into the transmission's pooled record, which is then
// reused, and every Interest the protocol stacks send goes on the air in an
// owned wire (Wire, BroadcastOwned, BroadcastOwnedAfter) that the medium
// takes back at the same moment. A handler that keeps any part of it past
// its own return copies that part, and a relay re-sends a copy in a wire of
// its own. The IP baselines' frames ride owned wires too. A Data wire is
// borrowed: the medium never writes or reuses it. A Data the sender holds
// as a record — stored, cached, or heard and relayed — goes on the air as
// that record (BroadcastData, BroadcastDataAfter), and every receiver's
// Packet().Data() is the sender's own *ndn.Data, with nothing decoded; any
// other Data (Broadcast, BroadcastNotify, BroadcastAfter) is decoded once
// per transmission into a record of its own. Either record is write-once,
// so the Content Store and a peer's packet tables keep it, and its wire,
// for good.
type Frame struct {
	// From is the ID of the transmitting radio.
	From int
	// Payload is the application bytes carried by the frame (read-only).
	Payload []byte
	// Size is the on-air size in bytes (payload plus header overhead).
	Size int

	// pkt is the transmission's decode-once NDN view, created by the medium
	// and shared by all receivers: whichever handler first asks for the
	// Interest/Data triggers the single parse, everyone after gets the memo.
	pkt *ndn.Packet
}

// Packet returns the frame's decode-once NDN packet view, shared across
// every receiver of the broadcast. Frames constructed outside the medium
// (zero value, tests) fall back to an unshared per-call view.
func (f Frame) Packet() *ndn.Packet {
	if f.pkt == nil {
		return ndn.NewPacket(f.Payload)
	}
	return f.pkt
}

// Receiver consumes frames successfully received by a radio.
type Receiver interface{ Receive(Frame) }

// Handler is a Receiver that is a function.
type Handler func(Frame)

// Receive calls h.
func (h Handler) Receive(f Frame) { h(f) }

// IndexMode selects how the medium finds the radios in range of a sender.
type IndexMode int32

const (
	// IndexGrid finds receivers through a uniform spatial hash grid; a
	// broadcast's cost scales with the radios actually near the sender. The
	// zero value, and so what a Config that does not say gets.
	IndexGrid IndexMode = iota
	// IndexNaive scans every attached radio per operation. It is the
	// reference implementation the grid must reproduce byte-for-byte, kept
	// for the golden-trace equivalence suite and old-vs-new benchmarks.
	//lint:ignore unreferenced the reference TestGridMatchesNaiveTrace and the golden suites compare the grid against
	IndexNaive
)

// The channel: 802.11b's data rate, the MAC header and FCS every frame
// carries on the air, and a fixed propagation latency.
const (
	dataRateBps      = 11e6
	headerBytes      = 34
	propagationDelay = time.Microsecond
)

// Config parameterizes the medium.
type Config struct {
	// Range is the transmission range in meters. Paper sweeps 20–100;
	// 0 means 60.
	Range float64
	// LossRate is the independent per-receiver frame loss probability in
	// [0, 1). Default 0 (the experiment harness sets the paper's 10%).
	LossRate float64
	// Index selects the receiver-lookup implementation; the zero value is
	// the spatial grid. The choice never changes any simulation result, only
	// how fast the medium finds receivers.
	Index IndexMode
}

// Stats aggregates medium-level counters used by the paper's overhead metric.
type Stats struct {
	// Transmissions counts frames put on the air.
	Transmissions uint64
	// Deliveries counts successful frame receptions across all radios.
	Deliveries uint64
	// Collisions counts receptions dropped because they overlapped another
	// reception at the same radio.
	Collisions uint64
	// Lost counts receptions dropped by the random loss process.
	Lost uint64
	// Jammed counts receptions dropped by an installed Jammer window.
	Jammed uint64
	// Deaf counts receptions whose receiver was disabled while the frame
	// was in the air. Every reception scheduled is counted exactly once, as
	// delivered, collided, lost, jammed or deaf, once it completes.
	Deaf uint64
	// BytesSent counts on-air bytes (including modeled header overhead).
	BytesSent uint64
}

// reception tracks one in-flight frame at one receiver: the interval the
// collision checks compare and the receiver. Records are pooled on the
// medium and held by their transmission until it completes.
type reception struct {
	start, end time.Duration
	collided   bool
	rx         *Radio
}

// transmission is one broadcast: the Frame its receivers are handed, their
// receptions in candidate order and, for BroadcastNotify, the sender's
// callback. Pooled on the medium; its one event (fire, the method value of
// complete, built once) completes every reception and returns the record.
type transmission struct {
	m      *Medium
	frame  Frame
	notify func(collided bool)
	recs   []*reception
	fire   func()
	// owned marks a payload taken from the wire pool (BroadcastOwnedAfter):
	// complete returns it there after the last handler.
	owned bool
	// room holds the Interest the frame carries, decoded in place: it is
	// rewritten only when the record is reused, after the completion event
	// has returned.
	room ndn.Room
}

// skin is the neighbour lists' margin as a fraction of the range: a list
// holds the radios within Range·(1+2·skin) of its sender and answers while
// neither end can have moved more than skin·Range since it was built, so no
// radio outside it can have come within Range.
const skin = 1.0 / 8

// neighbourList is a radio's neighbour list: every radio within
// Range·(1+2·skin) + eps of it at time at, in ascending ID order, built while
// the medium held attached radios — once another is attached, the list lacks
// it and answers no more. eps is the rounding margin its bounds carry
// (gridReach's, for its radius and position).
type neighbourList struct {
	at       time.Duration
	attached int
	eps      float64
	nbrs     []neighbour
}

// neighbour is one entry of a neighbour list: a radio and its distance from
// the list's owner when the list was built.
type neighbour struct {
	rx *Radio
	d0 float64
}

// Radio is one node's attachment to the medium.
type Radio struct {
	// id is the radio's identity: its slot in m.radios, its grid key and
	// what the wire carries (Frame.From).
	id      int
	enabled bool
	// looked marks a radio that has asked for its receivers before, last at
	// lookedAt: only a lookup within one drift window of the last builds a
	// neighbour list, so a radio that sends once never holds one.
	looked   bool
	lookedAt time.Duration
	list     *neighbourList
	// leg is the stretch of the mobility model's path the radio was last
	// placed on (relocate). Every position the medium needs is evaluated from
	// it inline, and the model is asked again only once the clock has left
	// [leg.Start, leg.End]: a geo.Legged model hands out whole legs — a
	// stationary radio's lasts forever — and any other model a one-instant
	// leg at its PositionAt, a cache of one timestamp.
	leg geo.Leg
	// maxSpeed bounds the mobility model's speed (+Inf when unknown); the
	// grid index uses it to decide how long a cell assignment stays valid.
	maxSpeed float64
	medium   *Medium
	mobility geo.Mobility
	receiver Receiver

	// coin is the radio's per-reception loss stream (sim.PurposeReception of
	// its id): whether a frame that reached it is lost depends on no other
	// radio's receptions.
	coin sim.Stream

	// inFlight holds receptions that have not yet completed delivery.
	inFlight []*reception
	// txWindows are this radio's own recent transmission intervals;
	// receptions overlapping them are dropped (half-duplex radio).
	txWindows []txWindow

	// Sent and Received count frames at this radio.
	Sent     uint64
	Received uint64
}

type txWindow struct {
	start, end time.Duration
}

// ID returns the radio's medium-unique identifier.
func (r *Radio) ID() int { return r.id }

// Position returns the radio's position at the current virtual time.
func (r *Radio) Position() geo.Point {
	return r.at(r.medium.kernel.Now())
}

// at returns the radio's position at now, the medium's current time.
func (r *Radio) at(now time.Duration) geo.Point {
	if now < r.leg.Start || now > r.leg.End {
		r.relocate(now)
	}
	return r.leg.At(now)
}

// relocate asks the mobility model for the leg holding the radio at now. A
// radio without a speed bound gets one-instant legs even from a geo.Legged
// model, and its grid entry is re-stored with each: the medium's queries
// allow it no drift, so it is stored where it is at every timestamp it is
// looked at.
func (r *Radio) relocate(now time.Duration) {
	unbounded := math.IsInf(r.maxSpeed, 1)
	if l, ok := r.mobility.(geo.Legged); ok && !unbounded {
		r.leg = l.LegAt(now)
		return
	}
	r.leg = geo.Leg{Start: now, End: now, From: r.mobility.PositionAt(now)}
	if unbounded && r.medium.grid != nil {
		r.medium.grid.Move(r.id, r.leg.From)
	}
}

// SetReceiver installs what the radio hands the frames it receives. It must
// be set before frames arrive; frames received while it is nil are dropped.
func (r *Radio) SetReceiver(rc Receiver) { r.receiver = rc }

// SetHandler installs h as the radio's receiver, or none if h is nil.
//
//lint:ignore unreferenced the tests of phy, multihop and core listen on a radio with a closure
func (r *Radio) SetHandler(h Handler) {
	r.receiver = nil
	if h != nil {
		r.receiver = h
	}
}

// SetEnabled turns the radio on or off. Disabled radios neither receive nor
// transmit (Broadcast becomes a no-op).
func (r *Radio) SetEnabled(on bool) { r.enabled = on }

// Medium is the shared broadcast channel connecting a set of radios.
type Medium struct {
	kernel *sim.Kernel
	cfg    Config
	radios []*Radio
	// spare is what is left of the chunk Attach cuts radios from. A world
	// attaches one radio per node, so its radios come a chunk at a time —
	// each as large as the radios attached so far, from 8 up to
	// radioChunkMax — and not one object each. A chunk is never regrown:
	// every *Radio handed out stays where it is.
	spare []Radio
	stats Stats

	// Fault-injection hooks (loss.go; both nil by default, leaving the
	// reception path byte-identical to the reference i.i.d. code).
	loss LossModel
	jam  *Jammer

	// Spatial index (IndexGrid; nil under IndexNaive). Cells are one radio
	// range wide and hold each radio's position as of its last sync. Mobile
	// radios are re-synced only when they may have drifted more than slack
	// meters since lastSync; every query widens its radius by the drift
	// accrued so far (gridReach), so the grid's answer is always a superset
	// of the radios truly in range and the exact-distance filter below
	// decides membership — identically to the naive scan.
	grid      *geo.Grid
	slack     float64
	lastSync  time.Duration
	maxSpeed  float64  // fastest finite-speed mobile radio
	mobile    []*Radio // radios with 0 < maxSpeed < +Inf
	unbounded []*Radio // no speed bound: re-stored at every new timestamp

	// Scratch buffers and free-lists for the broadcast hot path. Pools are
	// per medium, never global: trials run in parallel.
	candIDs  []int
	cand     []*Radio
	recFree  []*reception
	txFree   []*transmission
	sendFree []*sendJob
	// wireFree holds the owned wires whose transmissions have finished
	// (Wire, BroadcastOwned, BroadcastOwnedAfter).
	wireFree [][]byte
}

// NewMedium creates a medium over the given simulation kernel.
func NewMedium(kernel *sim.Kernel, cfg Config) *Medium {
	if cfg.Range == 0 {
		cfg.Range = 60
	}
	m := &Medium{kernel: kernel, cfg: cfg}
	if cfg.Index == IndexGrid {
		m.grid = geo.NewGrid(cfg.Range)
		m.slack = cfg.Range / 2
	}
	return m
}

// Config returns the medium's effective (defaulted) configuration.
//
//lint:ignore unreferenced TestGoldenWorldBuildsTheEngineItIsHanded asks each medium which index it runs on
func (m *Medium) Config() Config { return m.cfg }

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// radioChunkMax caps the radios of one chunk: a 50k-node world takes 22
// chunks, a 45-node world four small ones.
const radioChunkMax = 4096

// Attach adds a radio with the given mobility model and returns it.
func (m *Medium) Attach(mobility geo.Mobility) *Radio {
	id := len(m.radios)
	if len(m.spare) == 0 {
		m.spare = make([]Radio, min(max(id, 8), radioChunkMax))
	}
	r := &m.spare[0]
	m.spare = m.spare[1:]
	*r = Radio{
		id:       id,
		medium:   m,
		mobility: mobility,
		enabled:  true,
		maxSpeed: geo.MaxSpeedOf(mobility),
		coin:     m.kernel.Stream(id, sim.PurposeReception),
	}
	m.radios = append(m.radios, r)
	now := m.kernel.Now()
	r.relocate(now)
	if m.grid != nil {
		m.grid.Insert(r.id, r.leg.At(now))
		switch {
		case r.maxSpeed == 0:
			// Never moves; its cell assignment is permanent.
		case math.IsInf(r.maxSpeed, 1):
			m.unbounded = append(m.unbounded, r)
		default:
			m.mobile = append(m.mobile, r)
			if r.maxSpeed > m.maxSpeed {
				m.maxSpeed = r.maxSpeed
			}
		}
	}
	return r
}

// Radios returns the attached radios (shared slice; do not modify).
func (m *Medium) Radios() []*Radio { return m.radios }

// TxDuration returns the serialization time for a payload of n bytes,
// including modeled header overhead.
func (m *Medium) TxDuration(n int) time.Duration {
	bits := float64(n+headerBytes) * 8
	return time.Duration(bits / dataRateBps * float64(time.Second))
}

// InRange reports whether radios a and b are currently within transmission
// range of each other.
func (m *Medium) InRange(a, b *Radio) bool {
	now := m.kernel.Now()
	return a.at(now).Distance(b.at(now)) <= m.cfg.Range
}

// syncGrid re-stores radios whose grid position is too stale before a query
// at the current time. A mobile radio moves at most maxSpeed, so queries
// widen by maxSpeed·(now−lastSync) and positions are re-stored once that
// exceeds slack (half a range: the query stays within a 4×4 block of cells);
// radios without a finite speed bound re-store whenever the clock moved
// (relocate does, as each one's one-instant leg runs out).
func (m *Medium) syncGrid(now time.Duration) {
	for _, r := range m.unbounded {
		if now != r.leg.Start {
			r.relocate(now)
		}
	}
	if m.maxSpeed > 0 && m.maxSpeed*(now-m.lastSync).Seconds() > m.slack {
		for _, r := range m.mobile {
			m.grid.Move(r.id, r.at(now))
		}
		m.lastSync = now
	}
}

// candidatesInRange returns the enabled radios currently within range of
// sender (excluding sender itself) in ascending ID order — exactly the set
// and order the naive full scan produces, so both index modes schedule
// identical receptions in the same order. The returned
// slice is scratch owned by the medium, valid until the next call.
//
// On the grid a sender with a valid neighbour list answers from it; one
// whose last lookup lies within a drift window builds one; any other
// lookup — a sender's first, one after a longer silence, or any while a
// radio without a speed bound is attached — asks the grid alone.
func (m *Medium) candidatesInRange(sender *Radio) []*Radio {
	m.cand = m.cand[:0]
	if m.grid == nil {
		for _, rx := range m.radios {
			if rx == sender || !rx.enabled {
				continue
			}
			if m.InRange(sender, rx) {
				m.cand = append(m.cand, rx)
			}
		}
		return m.cand
	}
	now := m.kernel.Now()
	m.syncGrid(now)
	center := sender.at(now)
	if len(m.unbounded) == 0 {
		repeat := sender.looked && m.inWindow(sender.lookedAt, now)
		sender.looked, sender.lookedAt = true, now
		if l := sender.list; l != nil && l.attached == len(m.radios) && m.inWindow(l.at, now) {
			return m.fromList(l, center, now)
		}
		if repeat {
			return m.buildList(sender, center, now)
		}
	}
	r := m.gridReach(center, m.maxSpeed*(now-m.lastSync).Seconds())
	m.candIDs = m.grid.QueryRange(center, r, m.candIDs[:0])
	for _, id := range m.candIDs {
		rx := m.radios[id]
		// Same float expression as InRange, so the grid can never disagree
		// with the scan on a boundary case.
		if rx != sender && center.Distance(rx.at(now)) <= m.cfg.Range && rx.enabled {
			m.cand = append(m.cand, rx)
		}
	}
	return m.cand
}

// inWindow reports whether a neighbour list built at t0 still answers at now:
// no radio can have moved more than skin·Range since.
func (m *Medium) inWindow(t0, now time.Duration) bool {
	return m.maxSpeed*(now-t0).Seconds() <= skin*m.cfg.Range
}

// buildList makes sender's neighbour list from one grid query widened by the
// skin — every radio whose position now is within Range·(1+2·skin) + ε of
// center, with its distance — and answers the lookup from it with the exact
// test. ε is gridReach's margin for that radius, so a radio the list leaves
// out is more than Range + ε away once either end has moved skin·Range.
func (m *Medium) buildList(sender *Radio, center geo.Point, now time.Duration) []*Radio {
	wide := m.cfg.Range * (1 + 2*skin)
	eps := 1e-9 * (wide + math.Abs(center.X) + math.Abs(center.Y))
	r := m.gridReach(center, wide+eps-m.cfg.Range+m.maxSpeed*(now-m.lastSync).Seconds())
	m.candIDs = m.grid.QueryRange(center, r, m.candIDs[:0])
	l := sender.list
	if l == nil {
		l = &neighbourList{}
		sender.list = l
	}
	if cap(l.nbrs) < len(m.candIDs) {
		l.nbrs = make([]neighbour, 0, len(m.candIDs))
	}
	nbrs := l.nbrs[:0]
	for _, id := range m.candIDs {
		rx := m.radios[id]
		if rx == sender {
			continue
		}
		d := center.Distance(rx.at(now))
		if d > wide+eps {
			continue
		}
		nbrs = append(nbrs, neighbour{rx: rx, d0: d})
		if d <= m.cfg.Range && rx.enabled {
			m.cand = append(m.cand, rx)
		}
	}
	l.at, l.attached, l.eps, l.nbrs = now, len(m.radios), eps, nbrs
	return m.cand
}

// fromList answers a lookup from a sender's valid neighbour list l; center
// is the sender's position now. Each end has moved at most
// maxSpeed·(now−l.at) since an entry's distance d0, so an entry within Range
// by that drift twice over (plus the list's ε) is in range without a
// position, one beyond it is out, and only the rest are placed and given the
// exact test.
func (m *Medium) fromList(l *neighbourList, center geo.Point, now time.Duration) []*Radio {
	drift := 2*m.maxSpeed*(now-l.at).Seconds() + l.eps
	for _, n := range l.nbrs {
		rx := n.rx
		if !rx.enabled {
			continue
		}
		switch {
		case n.d0+drift <= m.cfg.Range:
		case n.d0-drift > m.cfg.Range:
			continue
		case center.Distance(rx.at(now)) > m.cfg.Range:
			continue
		}
		m.cand = append(m.cand, rx)
	}
	return m.cand
}

// gridReach returns the radius to query the grid with for the radios within
// Range of center when every stored position is within drift meters of the
// position the exact test will use. By the triangle inequality such a radio
// is stored within Range+drift of center; ε covers what rounding adds to
// that. The two computed distances are each off by a few ulps of themselves,
// and a mobility model's computed positions by a few ulps of the coordinates
// per leg crossed — about 1e-12 m ten kilometres from the origin — so a
// billionth of the magnitudes involved is a millionfold margin that still
// admits no candidate the exact test would not reject anyway.
func (m *Medium) gridReach(center geo.Point, drift float64) float64 {
	reach := m.cfg.Range + drift
	return reach + 1e-9*(reach+math.Abs(center.X)+math.Abs(center.Y))
}

// Neighbors returns the IDs of enabled radios currently within range of r
// (excluding r itself), in ascending ID order.
func (m *Medium) Neighbors(r *Radio) []int {
	var out []int
	for _, rx := range m.candidatesInRange(r) {
		out = append(out, rx.id)
	}
	return out
}

// newTransmission takes a transmission record from the pool (or allocates
// one) for a frame with no receptions yet.
func (m *Medium) newTransmission(frame Frame, notify func(collided bool)) *transmission {
	var tx *transmission
	if n := len(m.txFree); n > 0 {
		tx = m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
	} else {
		tx = &transmission{m: m}
		tx.fire = tx.complete
	}
	tx.frame, tx.notify = frame, notify
	return tx
}

// receive registers a frame as in flight at rx over [start, end] and checks
// it for overlap against everything else rx is hearing or sending.
func (m *Medium) receive(rx *Radio, start, end time.Duration) *reception {
	var rec *reception
	if n := len(m.recFree); n > 0 {
		rec = m.recFree[n-1]
		m.recFree[n-1] = nil
		m.recFree = m.recFree[:n-1]
	} else {
		rec = &reception{}
	}
	rec.start, rec.end, rec.collided, rec.rx = start, end, false, rx
	// Overlap with any in-flight reception garbles both.
	for _, other := range rx.inFlight {
		if rec.start < other.end && other.start < rec.end {
			rec.collided = true
			other.collided = true
		}
	}
	// Overlap with the receiver's own transmissions (half-duplex).
	kept := rx.txWindows[:0]
	for _, w := range rx.txWindows {
		if w.end >= start {
			kept = append(kept, w)
			if rec.start < w.end && w.start < rec.end {
				rec.collided = true
			}
		}
	}
	rx.txWindows = kept
	rx.inFlight = append(rx.inFlight, rec)
	return rec
}

// Broadcast transmits payload from radio r. Delivery is scheduled for every
// enabled radio in range at transmission start; each reception independently
// suffers loss and collision. The frame is delivered (or dropped) after the
// serialization time plus propagation delay.
func (m *Medium) Broadcast(r *Radio, payload []byte) {
	m.broadcast(r, payload, nil, nil, false)
}

// BroadcastData is Broadcast for a Data the sender holds as a record — a
// stored packet, a Content Store hit, a Data it heard: the frame carries
// d.Encode(), and every receiver's Packet().Data() is d itself, with no
// decode and no object. d is shared from this call on, so nobody may
// change it again (Data records are write-once).
func (m *Medium) BroadcastData(r *Radio, d *ndn.Data) {
	m.broadcast(r, d.Encode(), d, nil, false)
}

// BroadcastOwned is Broadcast for a wire taken from Wire, and the immediate
// twin of BroadcastOwnedAfter: the medium owns the wire from this call on
// and returns it to the pool when the radio is disabled, when nobody is in
// range, or once the completion event has run every receiver's handler.
func (m *Medium) BroadcastOwned(r *Radio, wire []byte) {
	m.broadcast(r, wire, nil, nil, true)
}

// Wire returns an empty buffer with capacity at least n from the medium's
// pool of owned wires. The caller appends a frame to it and hands it back
// through BroadcastOwned or BroadcastOwnedAfter, which returns it to the
// pool once the frame's transmission has finished; a buffer the pool holds
// is never handed out twice at once.
func (m *Medium) Wire(n int) []byte {
	if last := len(m.wireFree) - 1; last >= 0 {
		b := m.wireFree[last]
		m.wireFree[last] = nil
		m.wireFree = m.wireFree[:last]
		if cap(b) >= n {
			return b[:0]
		}
		// Too small: dropped, so the pool settles on buffers that fit the
		// largest frames its senders build.
	}
	return make([]byte, 0, n)
}

// release returns an owned wire to the pool.
func (m *Medium) release(wire []byte) {
	m.wireFree = append(m.wireFree, wire)
}

// sendJob is one frame waiting out its jitter (BroadcastAfter). Jobs are
// pooled on the medium and keep their event func (fire, the method value of
// send) for life.
type sendJob struct {
	m     *Medium
	radio *Radio
	wire  []byte
	data  *ndn.Data // the record wire encodes, for BroadcastDataAfter
	count *uint64
	live  *bool
	owned bool
	fire  func()
}

// BroadcastAfter broadcasts wire from r after delay — the jittered send
// every protocol layer makes — unless *live, the sender's running flag, is
// false by then, in which case the frame is dropped. count, when non-nil, is
// bumped as the frame goes on the air. The send allocates nothing: its
// record is pooled and its event func built once. wire is borrowed: the
// medium never writes or reuses it.
func (m *Medium) BroadcastAfter(delay time.Duration, r *Radio, wire []byte, count *uint64, live *bool) {
	m.sendAfter(delay, r, wire, nil, count, live, false)
}

// BroadcastDataAfter is BroadcastAfter for a Data the sender holds as a
// record, and the jittered twin of BroadcastData: its receivers are handed d
// itself.
func (m *Medium) BroadcastDataAfter(delay time.Duration, r *Radio, d *ndn.Data, count *uint64, live *bool) {
	m.sendAfter(delay, r, d.Encode(), d, count, live, false)
}

// BroadcastOwnedAfter is BroadcastAfter for a wire taken from Wire: the
// medium owns it from this call on and returns it to the pool once it is
// done with it — when the send is dropped, when the radio is disabled or
// nobody is in range, or when the completion event has run every
// receiver's handler. The caller neither reads nor writes it again, and a
// wire goes on the air once: a frame sent twice takes two wires.
func (m *Medium) BroadcastOwnedAfter(delay time.Duration, r *Radio, wire []byte, count *uint64, live *bool) {
	m.sendAfter(delay, r, wire, nil, count, live, true)
}

func (m *Medium) sendAfter(delay time.Duration, r *Radio, wire []byte, data *ndn.Data, count *uint64, live *bool, owned bool) {
	var j *sendJob
	if n := len(m.sendFree); n > 0 {
		j = m.sendFree[n-1]
		m.sendFree[n-1] = nil
		m.sendFree = m.sendFree[:n-1]
	} else {
		j = &sendJob{m: m}
		j.fire = j.send
	}
	j.radio, j.wire, j.data, j.count, j.live, j.owned = r, wire, data, count, live, owned
	m.kernel.ScheduleFunc(delay, j.fire)
}

func (j *sendJob) send() {
	m, r, wire, data, count, live, owned := j.m, j.radio, j.wire, j.data, j.count, j.live, j.owned
	j.radio, j.wire, j.data, j.count, j.live, j.owned = nil, nil, nil, nil, nil, false
	m.sendFree = append(m.sendFree, j)
	if !*live {
		if owned {
			m.release(wire)
		}
		return
	}
	if count != nil {
		*count++
	}
	m.broadcast(r, wire, data, nil, owned)
}

// BroadcastNotify is Broadcast with sender-side collision feedback: after the
// transmission completes, notify is invoked with whether the frame collided
// at any in-range receiver. This models the MAC-layer collision detection
// that PEBA (Section IV-F) relies on.
func (m *Medium) BroadcastNotify(r *Radio, payload []byte, notify func(collided bool)) {
	m.broadcast(r, payload, nil, notify, false)
}

// broadcast puts payload on the air from r; data, when non-nil, is the Data
// record payload encodes, handed to every receiver as it is, and owned says
// whether the medium returns payload to the wire pool once the transmission
// is over.
func (m *Medium) broadcast(r *Radio, payload []byte, data *ndn.Data, notify func(collided bool), owned bool) {
	if !r.enabled {
		if owned {
			m.release(payload)
		}
		if notify != nil {
			notify(false)
		}
		return
	}
	size := len(payload) + headerBytes
	m.stats.Transmissions++
	m.stats.BytesSent += uint64(size)
	r.Sent++

	start := m.kernel.Now()
	dur := m.TxDuration(len(payload))
	end := start + dur + propagationDelay

	// Half-duplex: remember our own airtime and garble receptions that
	// overlap it (a transmitting radio cannot hear). Windows that ended
	// before this transmission can never overlap a reception again (they
	// all start at now or later), so they are pruned on every send —
	// without this, a radio that only ever transmits grows its window list
	// without bound.
	keptTx := r.txWindows[:0]
	for _, w := range r.txWindows {
		if w.end >= start {
			keptTx = append(keptTx, w)
		}
	}
	r.txWindows = append(keptTx, txWindow{start: start, end: end})
	for _, rec := range r.inFlight {
		if rec.start < end && start < rec.end {
			rec.collided = true
		}
	}

	cands := m.candidatesInRange(r)
	if len(cands) == 0 && notify == nil {
		if owned {
			m.release(payload)
		}
		return
	}
	tx := m.newTransmission(Frame{From: r.id, Payload: payload, Size: size}, notify)
	tx.owned = owned
	switch {
	case len(cands) == 0:
	case data != nil:
		// The sender's own record, shared by every receiver: nothing to decode.
		tx.frame.pkt = tx.room.WrapData(data)
	case ndn.LooksLikePacket(payload):
		// One decode-once packet per transmission, shared by every receiver
		// below (they all deliver the transmission record's frame); an
		// Interest decodes into the record's room. Non-NDN traffic (the IP
		// baselines' routing and transport frames) skips the attachment: its
		// handlers never ask for the NDN view.
		tx.frame.pkt = tx.room.Wrap(payload)
	}
	for _, rx := range cands {
		tx.recs = append(tx.recs, m.receive(rx, start, end))
	}
	m.kernel.ScheduleFuncAt(end, tx.fire)
}

// complete is a transmission's one event, at its end. It finalizes each
// reception in candidate order — out of the receiver's in-flight set, then
// delivered unless it collided or was lost — and only then returns the
// records (and an owned wire) to the pools and reports to the sender. A
// broadcast a handler makes starts at this instant, so it can no longer
// overlap (and garble) a reception still in the loop, and it takes records
// (and a wire) of its own: the frame's decoded Interest lives in this one.
func (tx *transmission) complete() {
	m := tx.m
	collided := false
	for _, rec := range tx.recs {
		rx := rec.rx
		for i, other := range rx.inFlight {
			if other == rec {
				rx.inFlight = append(rx.inFlight[:i], rx.inFlight[i+1:]...)
				break
			}
		}
		collided = collided || rec.collided
		if m.admit(rx, rec.collided) && rx.receiver != nil {
			rx.receiver.Receive(tx.frame)
		}
	}
	for i, rec := range tx.recs {
		m.recFree = append(m.recFree, rec)
		tx.recs[i] = nil
	}
	if tx.owned {
		m.release(tx.frame.Payload)
	}
	notify := tx.notify
	tx.recs, tx.frame, tx.notify, tx.owned = tx.recs[:0], Frame{}, nil, false
	m.txFree = append(m.txFree, tx)
	if notify != nil {
		notify(collided)
	}
}

// admit reports whether a completed reception reaches rx's handler, and
// counts the reception as delivered or as the reason it was not.
func (m *Medium) admit(rx *Radio, collided bool) bool {
	if !rx.enabled {
		m.stats.Deaf++
		return false
	}
	if collided {
		m.stats.Collisions++
		return false
	}
	// Jammer check first: a blacked-out receiver hears nothing, so no loss
	// draw happens for it (pure position/time predicate — no RNG).
	if m.jam != nil && m.jam.Blocks(rx.Position(), m.kernel.Now()) {
		m.stats.Jammed++
		return false
	}
	if m.loss != nil {
		if m.loss.Drop(rx.id, &rx.coin) {
			m.stats.Lost++
			return false
		}
	} else if m.cfg.LossRate > 0 && rx.coin.Float64() < m.cfg.LossRate {
		m.stats.Lost++
		return false
	}
	m.stats.Deliveries++
	rx.Received++
	return true
}

// String summarizes the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("tx=%d rx=%d collisions=%d lost=%d bytes=%d",
		s.Transmissions, s.Deliveries, s.Collisions, s.Lost, s.BytesSent)
}
