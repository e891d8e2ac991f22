package routing

import (
	"encoding/binary"
	"sort"
	"time"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// The proactive protocol's timers and bounds.
const (
	// dsdvUpdatePeriod is the full-table broadcast period (Perkins &
	// Bhagwat use periodic dumps; mobile settings use a few seconds).
	dsdvUpdatePeriod = 5 * time.Second
	// dsdvRouteTTL invalidates routes through next hops not heard from.
	dsdvRouteTTL = 6 * dsdvUpdatePeriod
	// maxMetric bounds hop counts; larger metrics are unreachable.
	maxMetric = 16
)

// txJitter randomizes every transmission's start, modeling the 802.11 MAC's
// random backoff (the phy layer has no carrier sense). Both protocols use it.
const txJitter = 10 * time.Millisecond

type dsdvRoute struct {
	nextHop int
	metric  int
	seq     int
	heard   time.Duration
}

// DSDV is a destination-sequenced distance-vector router.
type DSDV struct {
	id      int
	k       *sim.Kernel
	radio   *phy.Radio
	table   map[int]dsdvRoute
	dsts    []int // appendTable's scratch: the table's keys, sorted
	ownSeq  int
	deliver func(src int, payload []byte)
	running bool
	tick    *sim.Timer
	rng     sim.Stream // the node's sim.PurposeRouting stream
	medium  *phy.Medium
	ctrlTx  uint64
}

var _ Router = (*DSDV)(nil)

// NewDSDV attaches a DSDV node to the medium.
func NewDSDV(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility) *DSDV {
	d := &DSDV{
		k:      k,
		medium: medium,
		table:  make(map[int]dsdvRoute),
	}
	d.tick = k.NewTimer(d.periodicUpdate)
	d.radio = medium.Attach(mobility)
	d.id = d.radio.ID()
	d.rng = k.Stream(d.id, sim.PurposeRouting)
	d.radio.SetReceiver(d)
	return d
}

// transmit broadcasts wire, a buffer from the medium's wire pool, after the
// MAC-backoff jitter; the medium takes the buffer back.
func (d *DSDV) transmit(wire []byte) {
	d.medium.BroadcastOwnedAfter(d.rng.Jitter(txJitter), d.radio, wire, nil, &d.running)
}

// ID implements Router.
func (d *DSDV) ID() int { return d.id }

// Radio exposes the node's radio so applications can stack broadcast
// protocols (e.g. Bithoc's HELLO flooding) on the same attachment.
func (d *DSDV) Radio() *phy.Radio { return d.radio }

// SetDeliver implements Router.
func (d *DSDV) SetDeliver(fn func(src int, payload []byte)) { d.deliver = fn }

// ControlTransmissions implements Router.
func (d *DSDV) ControlTransmissions() uint64 { return d.ctrlTx }

// RouteTo returns the current next hop and metric for dst, if reachable.
func (d *DSDV) RouteTo(dst int) (nextHop, metric int, ok bool) {
	r, exists := d.table[dst]
	if !exists || r.metric >= maxMetric {
		return 0, 0, false
	}
	return r.nextHop, r.metric, true
}

// Start implements Router.
func (d *DSDV) Start() {
	if d.running {
		return
	}
	d.running = true
	d.tick.Reset(d.rng.Jitter(dsdvUpdatePeriod))
}

// periodicUpdate broadcasts the full routing table — DSDV's defining (and
// costly) behaviour.
func (d *DSDV) periodicUpdate() {
	if !d.running {
		return
	}
	d.expireStale()
	d.ownSeq += 2 // even sequence numbers mark reachable routes
	f := frame{Proto: protoDSDVUpdate, Src: d.id, Dst: Broadcast, NextHop: Broadcast}
	wire := f.appendHeader(d.medium.Wire(headerLen + 2 + 12*(len(d.table)+1)))
	d.ctrlTx++
	d.transmit(d.appendTable(wire))
	d.tick.Reset(dsdvUpdatePeriod + d.rng.Jitter(dsdvUpdatePeriod/4))
}

// expireStale invalidates routes whose next hop has gone quiet.
func (d *DSDV) expireStale() {
	now := d.k.Now()
	for dst, r := range d.table {
		if now-r.heard > dsdvRouteTTL {
			delete(d.table, dst)
		}
	}
}

// appendTable appends the update payload to b: a count, then (dst, metric,
// seq) triples with the node itself as the first entry.
func (d *DSDV) appendTable(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(d.table)+1))
	b = putU32(b, d.id)
	b = putU32(b, 0)
	b = putU32(b, d.ownSeq)
	// Entries go out in sorted destination order so update frames are
	// byte-identical run to run (map iteration order is randomized).
	d.dsts = d.dsts[:0]
	for dst := range d.table {
		d.dsts = append(d.dsts, dst)
	}
	sort.Ints(d.dsts)
	for _, dst := range d.dsts {
		r := d.table[dst]
		b = putU32(b, dst)
		b = putU32(b, r.metric)
		b = putU32(b, r.seq)
	}
	return b
}

// Receive handles a frame the node's radio received.
func (d *DSDV) Receive(fr phy.Frame) {
	if !d.running {
		return
	}
	f, err := decodeFrame(fr.Payload)
	if err != nil {
		return
	}
	switch f.Proto {
	case protoDSDVUpdate:
		d.handleUpdate(f)
	case protoData:
		// Most data frames a radio hears are addressed through someone else.
		if f.NextHop == d.id {
			d.handleData(f)
		}
	}
}

// handleUpdate merges a neighbor's advertised table: newer sequence numbers
// win; equal sequences keep the shorter metric.
func (d *DSDV) handleUpdate(f frame) {
	if len(f.Payload) < 2 {
		return
	}
	n := int(binary.BigEndian.Uint16(f.Payload))
	pos := 2
	now := d.k.Now()
	for i := 0; i < n; i++ {
		if pos+12 > len(f.Payload) {
			return
		}
		dst := getI32(f.Payload[pos:])
		metric := getI32(f.Payload[pos+4:]) + 1
		seq := getI32(f.Payload[pos+8:])
		pos += 12
		if dst == d.id {
			continue
		}
		cur, exists := d.table[dst]
		if !exists || seq > cur.seq || (seq == cur.seq && metric < cur.metric) {
			if metric < maxMetric {
				d.table[dst] = dsdvRoute{nextHop: f.Src, metric: metric, seq: seq, heard: now}
			}
		} else if cur.nextHop == f.Src {
			cur.heard = now
			d.table[dst] = cur
		}
	}
}

// Send implements Router: unicast via the current next hop. A node not yet
// started sends nothing.
func (d *DSDV) Send(dst int, payload []byte) bool {
	next, _, ok := d.RouteTo(dst)
	if !ok || !d.running {
		return false
	}
	f := &frame{Proto: protoData, Src: d.id, Dst: dst, NextHop: next, TTL: maxMetric, Payload: payload}
	d.transmit(f.wire(d.medium))
	return true
}

// handleData forwards or delivers a unicast frame addressed through us;
// forwarding re-encodes from the received view into a wire of its own.
func (d *DSDV) handleData(f frame) {
	if f.Dst == d.id {
		if d.deliver != nil {
			d.deliver(f.Src, f.Payload)
		}
		return
	}
	if f.TTL <= 0 {
		return
	}
	next, _, ok := d.RouteTo(f.Dst)
	if !ok {
		return
	}
	fwd := &frame{Proto: protoData, Src: f.Src, Dst: f.Dst, NextHop: next, TTL: f.TTL - 1, Payload: f.Payload}
	d.transmit(fwd.wire(d.medium))
}
