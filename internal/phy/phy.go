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
// enforces it. See docs/PERFORMANCE.md.
//
// Delivery follows the zero-copy wire path: one broadcast creates one
// immutable frame whose NDN parse is memoized (Frame.Packet), so the k
// receivers of a transmission share a single decode instead of k independent
// re-parses. See the Frame docs for the immutability contract this relies
// on.
package phy

import (
	"fmt"
	"math"
	"sort"
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

// Handler consumes frames successfully received by a radio.
type Handler func(Frame)

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
	IndexNaive
)

// Config parameterizes the medium.
type Config struct {
	// Range is the transmission range in meters. Paper sweeps 20–100.
	Range float64
	// DataRateBps is the channel data rate in bits per second.
	// Default: 11 Mbps (802.11b).
	DataRateBps float64
	// LossRate is the independent per-receiver frame loss probability in
	// [0, 1). Default 0 (the experiment harness sets the paper's 10%).
	LossRate float64
	// HeaderBytes is added to every payload to model MAC/PHY framing
	// overhead. Default 34 (802.11 MAC header + FCS).
	HeaderBytes int
	// PropagationDelay is the fixed propagation latency. Default 1 µs.
	PropagationDelay time.Duration
	// Index selects the receiver-lookup implementation; the zero value is
	// the spatial grid. The choice never changes any simulation result, only
	// how fast the medium finds receivers.
	Index IndexMode
}

func (c Config) withDefaults() Config {
	if c.Range == 0 {
		c.Range = 60
	}
	if c.DataRateBps == 0 {
		c.DataRateBps = 11e6
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 34
	}
	if c.PropagationDelay == 0 {
		c.PropagationDelay = time.Microsecond
	}
	return c
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
	// BytesSent counts on-air bytes (including modeled header overhead).
	BytesSent uint64
}

// reception tracks one in-flight frame at one receiver: the interval the
// collision checks compare, the receiver, and the transmission whose Frame it
// delivers. Records are pooled on the medium and keep their completion func
// (fire, the method value of complete) for life, so scheduling a reception
// allocates nothing. A reception of a BroadcastNotify transmission outlives
// its completion: the notify event reads its final collided state and
// releases it.
type reception struct {
	start, end time.Duration
	collided   bool
	rx         *Radio
	tx         *transmission
	fire       func()
}

// transmission is the state the receivers of one broadcast share: the Frame
// each is handed and, for BroadcastNotify, the sender's callback and the
// receptions it reports on. Pooled on the medium like receptions; refs counts
// the scheduled events (completions, plus the notify event) that have yet to
// run, and the one that takes it to zero returns the record to the pool.
type transmission struct {
	m      *Medium
	frame  Frame
	refs   int
	notify func(collided bool)
	recs   []*reception
	// fireNotify is the method value of notifyDone, built once.
	fireNotify func()
}

// Radio is one node's attachment to the medium.
type Radio struct {
	// id is the radio's wire-visible identity (Frame.From). In a standalone
	// medium it equals idx; in a sharded composition it comes from a counter
	// shared across the member mediums so identities stay globally unique.
	id int
	// idx is the radio's slot in its own medium — the grid key and the
	// m.radios index. Never wire-visible.
	idx      int
	medium   *Medium
	mobility geo.Mobility
	handler  Handler
	enabled  bool

	// pos caches the radio's position for the medium's current cache
	// generation, so each position is computed at most once per distinct
	// virtual timestamp no matter how many broadcasts probe it.
	pos    geo.Point
	posGen uint64
	// maxSpeed bounds the mobility model's speed (+Inf when unknown); the
	// grid index uses it to decide how long a cell assignment stays valid.
	maxSpeed float64

	// col is the radio's current x-column in the medium's boundary
	// occupancy histogram (sharded compositions only; valid when hasCol).
	// It moves in lockstep with the grid bucket, so the published column
	// mask inherits the grid's drift bound.
	col    int64
	hasCol bool

	// coin is the radio's per-reception loss stream (sim.PurposeReception of
	// its id): whether a frame that reached it is lost depends on no other
	// radio's receptions, nor on the kernel that hosts it.
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
	return r.medium.positionOf(r)
}

// SetHandler installs the receive callback. It must be set before frames
// arrive; frames received while the handler is nil are dropped.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// Handler returns the currently installed receive callback, letting stacked
// protocols chain onto an existing one.
func (r *Radio) Handler() Handler { return r.handler }

// SetEnabled turns the radio on or off. Disabled radios neither receive nor
// transmit (Broadcast becomes a no-op).
func (r *Radio) SetEnabled(on bool) { r.enabled = on }

// Enabled reports whether the radio is on.
func (r *Radio) Enabled() bool { return r.enabled }

// Medium is the shared broadcast channel connecting a set of radios.
type Medium struct {
	kernel *sim.Kernel
	cfg    Config
	radios []*Radio
	stats  Stats

	// Fault-injection hooks (loss.go; both nil by default, leaving the
	// reception path byte-identical to the reference i.i.d. code).
	loss LossModel
	jam  *Jammer

	// Position cache generation: bumped whenever the virtual clock has
	// moved since the last position lookup. Radios tag their cached
	// position with the generation they computed it at.
	posGen uint64
	posNow time.Duration

	// Spatial index (IndexGrid; nil under IndexNaive). Cells are one radio
	// range wide and hold each radio's position as of its last sync. Mobile
	// radios are re-synced only when they may have drifted more than slack
	// meters since lastSync; every query widens its radius by the drift
	// accrued so far (gridReach), so the grid's answer is always a superset
	// of the radios truly in range and the exact-distance filter below
	// decides membership — identically to the naive scan.
	grid         *geo.Grid
	slack        float64
	lastSync     time.Duration
	maxSpeed     float64  // fastest finite-speed mobile radio
	mobile       []*Radio // radios with 0 < maxSpeed < +Inf
	unbounded    []*Radio // no speed bound: re-bucket every new timestamp
	unboundedGen uint64

	// Scratch buffers and free-lists for the broadcast hot path. Pools are
	// per medium, never global: the member mediums of a sharded world run in
	// parallel.
	candIDs  []int
	cand     []*Radio
	recFree  []*reception
	txFree   []*transmission
	sendFree []*sendJob

	// Sharded composition hooks (nil/zero on a standalone medium): shard is
	// this medium's index, nextID the shared radio-identity counter, and
	// cross the fan-out that hands broadcasts to sibling shards.
	shard  int
	nextID *int
	cross  crossShard

	// Boundary occupancy (sharded grid-mode members only; colCount nil
	// otherwise). colCount histograms the radios per x-column (columns one
	// radio range wide, the same floor arithmetic as the grid via
	// geo.CellIndex); pub is the immutable snapshot siblings read while
	// windows execute. The owner mutates the histogram during its own
	// window; the coordinator republishes at barriers (publishCols), so
	// readers and the writer never overlap.
	colCount  map[int64]int
	colsDirty bool
	pub       *colMask
}

// colMask is one medium's published stripe-occupancy snapshot: which
// x-columns hold its radios, how fresh the underlying grid buckets were
// (syncedAt), and how fast its radios can move. Immutable once published
// except for syncedAt tightening at barriers (no shard worker is running
// then). Readers bound a radio's true x at time t to its column widened by
// maxSpeed·(t−syncedAt) — the same drift argument syncGrid uses.
type colMask struct {
	cols     []int64       // sorted occupied columns
	syncedAt time.Duration // grid buckets exact at this virtual time
	maxSpeed float64       // fastest mobile radio; +Inf disables all bounds
	version  uint64        // bumped per republish; keys sibling gap caches
}

// crossShard is the hook a sharded composition (ShardedMedium) installs on
// each member medium: every broadcast is offered to sibling shards, whose
// own grids decide which of their radios are in range.
type crossShard interface {
	handoff(fromShard int, center geo.Point, fromID int, payload []byte, size int, start, end time.Duration)
}

// NewMedium creates a medium over the given simulation kernel.
func NewMedium(kernel *sim.Kernel, cfg Config) *Medium {
	cfg = cfg.withDefaults()
	m := &Medium{kernel: kernel, cfg: cfg}
	if cfg.Index == IndexGrid {
		m.grid = geo.NewGrid(cfg.Range)
		m.slack = cfg.Range / 2
	}
	return m
}

// Config returns the medium's effective (defaulted) configuration.
func (m *Medium) Config() Config { return m.cfg }

// Stats returns a copy of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// Attach adds a radio with the given mobility model and returns it.
func (m *Medium) Attach(mobility geo.Mobility) *Radio {
	id := len(m.radios)
	if m.nextID != nil {
		id = *m.nextID
		*m.nextID++
	}
	r := &Radio{
		id:       id,
		idx:      len(m.radios),
		medium:   m,
		mobility: mobility,
		enabled:  true,
		maxSpeed: geo.MaxSpeedOf(mobility),
		coin:     m.kernel.Stream(id, sim.PurposeReception),
	}
	m.radios = append(m.radios, r)
	if m.grid != nil {
		p := m.positionOf(r)
		m.grid.Insert(r.idx, p)
		m.trackCol(r, p)
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
	return m.cfg.TxDuration(n)
}

// TxDuration returns the serialization time for a payload of n bytes under
// this configuration (defaults applied), including header overhead.
func (c Config) TxDuration(n int) time.Duration {
	c = c.withDefaults()
	bits := float64(n+c.HeaderBytes) * 8
	return time.Duration(bits / c.DataRateBps * float64(time.Second))
}

// ConservativeLookahead returns the shortest interval between a
// transmission starting and any of its receptions completing: the air time
// of an empty payload plus propagation delay. It is the safe lockstep
// window for space-partitioned execution (sim.ShardedKernel) — a handoff
// sent when a broadcast starts always merges before any of its deliveries
// are due, so cross-shard delivery timing is exact. Larger windows are
// legal but relax timing; see docs/PERFORMANCE.md.
func (c Config) ConservativeLookahead() time.Duration {
	c = c.withDefaults()
	return c.TxDuration(0) + c.PropagationDelay
}

// clockGen bumps the position-cache generation when the virtual clock has
// advanced since the last lookup and returns the current generation.
func (m *Medium) clockGen() uint64 {
	if now := m.kernel.Now(); m.posGen == 0 || now != m.posNow {
		m.posNow = now
		m.posGen++
	}
	return m.posGen
}

// positionOf returns r's position at the current virtual time, computing it
// at most once per radio per distinct timestamp. Mobility models are pure
// functions of time, so caching cannot change any result.
func (m *Medium) positionOf(r *Radio) geo.Point {
	gen := m.clockGen()
	if r.posGen != gen {
		r.pos = r.mobility.PositionAt(m.posNow)
		r.posGen = gen
	}
	return r.pos
}

// InRange reports whether radios a and b are currently within transmission
// range of each other.
func (m *Medium) InRange(a, b *Radio) bool {
	return m.positionOf(a).Distance(m.positionOf(b)) <= m.cfg.Range
}

// syncGrid re-stores radios whose grid position is too stale before a query
// at the current time. A mobile radio moves at most maxSpeed, so queries
// widen by maxSpeed·(now−lastSync) and positions are re-stored once that
// exceeds slack (half a range: the query stays within a 4×4 block of cells);
// radios without a finite speed bound re-store whenever the clock moved.
func (m *Medium) syncGrid() {
	gen := m.clockGen()
	if len(m.unbounded) > 0 && m.unboundedGen != gen {
		for _, r := range m.unbounded {
			p := m.positionOf(r)
			m.grid.Move(r.idx, p)
			m.trackCol(r, p)
		}
		m.unboundedGen = gen
	}
	if m.maxSpeed > 0 && m.maxSpeed*(m.posNow-m.lastSync).Seconds() > m.slack {
		for _, r := range m.mobile {
			p := m.positionOf(r)
			m.grid.Move(r.idx, p)
			m.trackCol(r, p)
		}
		m.lastSync = m.posNow
	}
}

// enableColTracking turns on the boundary occupancy histogram (sharded
// grid-mode members only), seeding it from any radios already attached.
// Under IndexNaive there is no grid — and no drift bookkeeping to inherit
// — so tracking stays off and siblings simply never cull or batch, which
// is behavior-neutral because culling and batching are trace-preserving
// optimizations.
func (m *Medium) enableColTracking() {
	if m.grid == nil || m.colCount != nil {
		return
	}
	m.colCount = make(map[int64]int)
	for _, r := range m.radios {
		m.trackCol(r, m.positionOf(r))
	}
}

// trackCol moves r to the x-column of p in the occupancy histogram. Called
// exactly where the grid re-buckets, so a column is stale only when the
// bucket is, and the published mask can reuse the grid's drift bound.
func (m *Medium) trackCol(r *Radio, p geo.Point) {
	if m.colCount == nil {
		return
	}
	c := geo.CellIndex(p.X, m.cfg.Range)
	if r.hasCol {
		if r.col == c {
			return
		}
		if n := m.colCount[r.col] - 1; n > 0 {
			m.colCount[r.col] = n
		} else {
			delete(m.colCount, r.col)
		}
	}
	r.col, r.hasCol = c, true
	m.colCount[c]++
	m.colsDirty = true
}

// publishCols refreshes the published occupancy snapshot. Barrier-only
// (the coordinator calls it from the ShardedMedium merge hook): no shard
// worker is mid-window, so swapping — or tightening syncedAt on — the
// snapshot cannot race with sibling readers, and the next window's reads
// are ordered after it by the worker wake-up.
func (m *Medium) publishCols() {
	if m.colCount == nil {
		return
	}
	if m.pub != nil && !m.colsDirty {
		// Columns unchanged but the grid may have re-synced since the last
		// publish; advancing syncedAt tightens every reader's drift bound.
		m.pub.syncedAt = m.lastSync
		return
	}
	cols := make([]int64, 0, len(m.colCount))
	for c := range m.colCount {
		cols = append(cols, c)
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
	ms := m.maxSpeed
	if len(m.unbounded) > 0 {
		ms = math.Inf(1)
	}
	var ver uint64 = 1
	if m.pub != nil {
		ver = m.pub.version + 1
	}
	m.pub = &colMask{cols: cols, syncedAt: m.lastSync, maxSpeed: ms, version: ver}
	m.colsDirty = false
}

// maskExcludes reports whether, per this medium's published occupancy
// mask, no radio of this medium can possibly lie within transmission range
// of x-coordinate x at time at — the sender-side cull for cross-shard
// handoffs. Conservative on every axis: columns are widened by the drift
// bound since the mask's grid sync, extended one full extra column against
// float boundary cases, and the y-axis is ignored (x-distance is a lower
// bound on true distance). A false return promises nothing; a true return
// guarantees candidatesAroundAt at time `at` would find no one, so
// dropping the handoff is trace-neutral. Readers may run on sibling shard
// workers mid-window: the snapshot is immutable until the next barrier.
func (m *Medium) maskExcludes(x float64, at time.Duration) bool {
	pub := m.pub
	if pub == nil {
		return false
	}
	if len(pub.cols) == 0 {
		return true // no radios attached: nothing could ever hear
	}
	if math.IsInf(pub.maxSpeed, 1) {
		return false // unbounded movers: the mask bounds nothing
	}
	drift := 0.0
	if at > pub.syncedAt {
		drift = pub.maxSpeed * (at - pub.syncedAt).Seconds()
	}
	reach := m.cfg.Range + drift
	cell := m.cfg.Range // grid cell edge == range, by construction
	lo := geo.CellIndex(x-reach, cell) - 1
	hi := geo.CellIndex(x+reach, cell) + 1
	i := sort.Search(len(pub.cols), func(i int) bool { return pub.cols[i] >= lo })
	return i == len(pub.cols) || pub.cols[i] > hi
}

// candidatesInRange returns the enabled radios currently within range of
// sender (excluding sender itself) in ascending ID order — exactly the set
// and order the naive full scan produces, so both index modes schedule
// identical receptions in the same order. The returned
// slice is scratch owned by the medium, valid until the next call.
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
	m.syncGrid()
	center := m.positionOf(sender)
	r := m.gridReach(center, m.maxSpeed*(m.posNow-m.lastSync).Seconds())
	m.candIDs = m.grid.QueryRange(center, r, m.candIDs[:0])
	for _, idx := range m.candIDs {
		rx := m.radios[idx]
		// Same float expression as InRange, so the grid can never disagree
		// with the scan on a boundary case.
		if rx != sender && center.Distance(m.positionOf(rx)) <= m.cfg.Range && rx.enabled {
			m.cand = append(m.cand, rx)
		}
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

// candidatesAroundAt mirrors candidatesInRange for a transmission
// originating outside this medium (a cross-shard handoff): every enabled
// local radio within range of center at virtual time `at` — the
// transmission start, which is at or before the merge barrier this runs
// at — in ascending slot order, same scratch ownership. Evaluating
// receiver positions at the transmission start (rather than at the merge
// barrier, as before the batched scheduler) matches the local half of
// BroadcastNotify, makes the candidate set independent of where the
// barrier happens to fall, and is what the sender-side mask cull promises
// to be a superset of. Positions at a past timestamp bypass the per-now
// cache (mobility models are pure functions of time); the grid query is
// widened by the drift between a stored position and the position at `at`.
func (m *Medium) candidatesAroundAt(center geo.Point, at time.Duration) []*Radio {
	m.cand = m.cand[:0]
	if m.grid == nil {
		for _, rx := range m.radios {
			if rx.enabled && center.Distance(rx.mobility.PositionAt(at)) <= m.cfg.Range {
				m.cand = append(m.cand, rx)
			}
		}
		return m.cand
	}
	m.syncGrid()
	if len(m.unbounded) > 0 {
		// No finite bound relates a bucket at now to a position at `at`;
		// fall back to the exact scan.
		for _, rx := range m.radios {
			if rx.enabled && center.Distance(rx.mobility.PositionAt(at)) <= m.cfg.Range {
				m.cand = append(m.cand, rx)
			}
		}
		return m.cand
	}
	// Positions were stored between lastSync and now (a radio attached since
	// the sync stores its own), so none is further in time from `at` than the
	// farther of those two.
	apart := max((m.posNow - at).Abs(), (at - m.lastSync).Abs())
	r := m.gridReach(center, m.maxSpeed*apart.Seconds())
	m.candIDs = m.grid.QueryRange(center, r, m.candIDs[:0])
	for _, idx := range m.candIDs {
		rx := m.radios[idx]
		if center.Distance(rx.mobility.PositionAt(at)) <= m.cfg.Range && rx.enabled {
			m.cand = append(m.cand, rx)
		}
	}
	return m.cand
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
// one) for a frame with no events scheduled yet.
func (m *Medium) newTransmission(frame Frame, notify func(collided bool)) *transmission {
	var tx *transmission
	if n := len(m.txFree); n > 0 {
		tx = m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
	} else {
		tx = &transmission{m: m}
		tx.fireNotify = tx.notifyDone
	}
	tx.frame, tx.notify = frame, notify
	return tx
}

// unref drops one scheduled event's reference; the last one pools the record.
func (tx *transmission) unref() {
	if tx.refs--; tx.refs == 0 {
		tx.frame, tx.notify = Frame{}, nil
		tx.m.txFree = append(tx.m.txFree, tx)
	}
}

// receive registers tx's frame as in flight at rx over [start, end]: the
// overlap checks against everything else rx is hearing or sending, and the
// completion event at end.
func (m *Medium) receive(rx *Radio, tx *transmission, start, end time.Duration) *reception {
	var rec *reception
	if n := len(m.recFree); n > 0 {
		rec = m.recFree[n-1]
		m.recFree[n-1] = nil
		m.recFree = m.recFree[:n-1]
	} else {
		rec = &reception{}
		rec.fire = rec.complete
	}
	rec.start, rec.end, rec.collided, rec.rx, rec.tx = start, end, false, rx, tx
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
	tx.refs++
	m.kernel.ScheduleFuncAt(end, rec.fire)
	return rec
}

// Broadcast transmits payload from radio r. Delivery is scheduled for every
// enabled radio in range at transmission start; each reception independently
// suffers loss and collision. The frame is delivered (or dropped) after the
// serialization time plus propagation delay.
func (m *Medium) Broadcast(r *Radio, payload []byte) {
	m.BroadcastNotify(r, payload, nil)
}

// sendJob is one frame waiting out its jitter (BroadcastAfter). Jobs are
// pooled on the medium and keep their event func (fire, the method value of
// send) for life.
type sendJob struct {
	m     *Medium
	radio *Radio
	wire  []byte
	count *uint64
	live  *bool
	fire  func()
}

// BroadcastAfter broadcasts wire from r after delay — the jittered send
// every protocol layer makes — unless *live, the sender's running flag, is
// false by then, in which case the frame is dropped. count, when non-nil, is
// bumped as the frame goes on the air. The send allocates nothing: its
// record is pooled and its event func built once.
func (m *Medium) BroadcastAfter(delay time.Duration, r *Radio, wire []byte, count *uint64, live *bool) {
	var j *sendJob
	if n := len(m.sendFree); n > 0 {
		j = m.sendFree[n-1]
		m.sendFree[n-1] = nil
		m.sendFree = m.sendFree[:n-1]
	} else {
		j = &sendJob{m: m}
		j.fire = j.send
	}
	j.radio, j.wire, j.count, j.live = r, wire, count, live
	m.kernel.ScheduleFunc(delay, j.fire)
}

func (j *sendJob) send() {
	m, r, wire, count, live := j.m, j.radio, j.wire, j.count, j.live
	j.radio, j.wire, j.count, j.live = nil, nil, nil, nil
	m.sendFree = append(m.sendFree, j)
	if !*live {
		return
	}
	if count != nil {
		*count++
	}
	m.Broadcast(r, wire)
}

// BroadcastNotify is Broadcast with sender-side collision feedback: after the
// transmission completes, notify is invoked with whether the frame collided
// at any in-range receiver. This models the MAC-layer collision detection
// that PEBA (Section IV-F) relies on.
func (m *Medium) BroadcastNotify(r *Radio, payload []byte, notify func(collided bool)) {
	if !r.enabled {
		if notify != nil {
			notify(false)
		}
		return
	}
	size := len(payload) + m.cfg.HeaderBytes
	m.stats.Transmissions++
	m.stats.BytesSent += uint64(size)
	r.Sent++

	start := m.kernel.Now()
	dur := m.TxDuration(len(payload))
	end := start + dur + m.cfg.PropagationDelay

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

	frame := Frame{From: r.id, Payload: payload, Size: size}
	cands := m.candidatesInRange(r)
	if len(cands) > 0 && ndn.LooksLikePacket(payload) {
		// One decode-once packet per transmission, shared by every receiver
		// below (they all deliver the transmission record's frame).
		// Non-NDN traffic (the IP baselines' routing and transport frames)
		// skips the attachment: its handlers never ask for the NDN view, so
		// it should not pay even the wrapper allocation.
		frame.pkt = ndn.NewPacket(payload)
	}
	if len(cands) > 0 || notify != nil {
		tx := m.newTransmission(frame, notify)
		for _, rx := range cands {
			rec := m.receive(rx, tx, start, end)
			if notify != nil {
				tx.recs = append(tx.recs, rec)
			}
		}
		if notify != nil {
			// Scheduled last, so at the same timestamp it fires after every
			// completion above and sees each record's final collided state.
			tx.refs++
			m.kernel.ScheduleFuncAt(end, tx.fireNotify)
		}
	}
	if m.cross != nil {
		// Offer the broadcast to sibling shards; each target's own grid
		// decides which of its radios are in range, so the handoff needs no
		// boundary geometry and stays correct under arbitrary mobility.
		// Sender-side collision feedback (notify) observes local receivers
		// only — a documented relaxation of the global-trace contract.
		m.cross.handoff(m.shard, m.positionOf(r), r.id, payload, size, start, end)
	}
}

// deliverForeign registers a transmission that originated on another shard
// at every local radio in range of its sender position at the transmission
// start, mirroring the local receiver half of BroadcastNotify: same
// in-range rule, same overlap checks, same completion scheduling. It runs
// on this medium's kernel at the merge barrier — under the conservative
// lookahead that is always before any completion is due, so delivery
// timing is exact; under a relaxed window, completions due in the past
// fire at the merge barrier. The payload bytes are shared read-only across
// shards (the wire-path immutability contract); the NDN parse memo is NOT
// shared — each shard decodes once itself, because the memo is written
// lazily and sibling shards run concurrently.
func (m *Medium) deliverForeign(center geo.Point, fromID int, payload []byte, size int, start, end time.Duration) {
	cands := m.candidatesAroundAt(center, start)
	if len(cands) == 0 {
		return
	}
	frame := Frame{From: fromID, Payload: payload, Size: size}
	if ndn.LooksLikePacket(payload) {
		frame.pkt = ndn.NewPacket(payload)
	}
	tx := m.newTransmission(frame, nil)
	for _, rx := range cands {
		m.receive(rx, tx, start, end)
	}
}

// notifyDone is a BroadcastNotify transmission's last event: it reports
// whether any receiver's copy collided and releases the receptions their
// completions left for it.
func (tx *transmission) notifyDone() {
	m := tx.m
	collided := false
	for i, rec := range tx.recs {
		if rec.collided {
			collided = true
		}
		m.recFree = append(m.recFree, rec)
		tx.recs[i] = nil
	}
	tx.recs = tx.recs[:0]
	notify := tx.notify
	tx.unref()
	notify(collided)
}

// complete finalizes one reception: removes it from the in-flight set and
// delivers the frame unless it collided or was lost.
func (rec *reception) complete() {
	rx, tx := rec.rx, rec.tx
	m := tx.m
	for i, other := range rx.inFlight {
		if other == rec {
			rx.inFlight = append(rx.inFlight[:i], rx.inFlight[i+1:]...)
			break
		}
	}
	collided, frame := rec.collided, tx.frame
	if tx.notify == nil {
		// No notify event reads this record later; recycle it — and, if this
		// was its last reception, the transmission — now, so a broadcast
		// triggered by the handler below can reuse them. The handler keeps
		// its own copy of the frame.
		m.recFree = append(m.recFree, rec)
	}
	tx.unref()
	if !rx.enabled {
		return
	}
	if collided {
		m.stats.Collisions++
		return
	}
	// Jammer check first: a blacked-out receiver hears nothing, so no loss
	// draw happens for it (pure position/time predicate — no RNG).
	if m.jam != nil && m.jam.Blocks(m.positionOf(rx), m.kernel.Now()) {
		m.stats.Jammed++
		return
	}
	if m.loss != nil {
		if m.loss.Drop(rx.id, &rx.coin) {
			m.stats.Lost++
			return
		}
	} else if m.cfg.LossRate > 0 && rx.coin.Float64() < m.cfg.LossRate {
		m.stats.Lost++
		return
	}
	m.stats.Deliveries++
	rx.Received++
	if rx.handler != nil {
		rx.handler(frame)
	}
}

// String summarizes the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("tx=%d rx=%d collisions=%d lost=%d bytes=%d",
		s.Transmissions, s.Deliveries, s.Collisions, s.Lost, s.BytesSent)
}
