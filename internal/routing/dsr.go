package routing

import (
	"time"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// The reactive protocol's timers and bounds.
const (
	// discoveryRound bounds one route discovery round before retry.
	discoveryRound = 2 * time.Second
	// maxDiscoveryRetries bounds route request retries before the buffered
	// payloads are dropped.
	maxDiscoveryRetries = 3
	// dsrRouteTTL ages out cached routes (mobility breaks them silently).
	dsrRouteTTL = 30 * time.Second
	// maxHops bounds RREQ flooding.
	maxHops = 16
	// bufferLimit bounds payloads queued awaiting a route.
	bufferLimit = 64
	// hopRepeats is the number of times each unicast data/RREP frame is
	// put on the air per hop. The phy layer models raw broadcast loss with
	// no 802.11 unicast ACK/retry; repeating each hop transmission stands
	// in for the MAC's ARQ (receivers deduplicate by origin sequence).
	hopRepeats = 2
	// floodJitter spreads RREQ relays over a wider window: a route-request
	// flood makes every node in range rebroadcast, and without substantial
	// dispersion those relays collide and the discovery fails.
	floodJitter = 150 * time.Millisecond
)

type cachedRoute struct {
	hops  []int // full path src..dst inclusive
	since time.Duration
}

// pendingDiscovery buffers payloads awaiting a route. Its retry timer is a
// reusable sim.Timer re-armed per discovery round instead of a fresh
// closure and event per round.
type pendingDiscovery struct {
	payloads [][]byte
	retries  int
	timer    *sim.Timer
}

// DSR is a dynamic source routing node.
type DSR struct {
	id      int
	k       *sim.Kernel
	radio   *phy.Radio
	routes  map[int]cachedRoute
	pending map[int]*pendingDiscovery
	seenReq map[int]map[int]bool // origin -> reqID set
	reqID   int
	txSeq   uint32
	seenSeq map[uint64]bool // dedup of repeated unicast frames
	deliver func(src int, payload []byte)
	running bool
	rng     sim.Stream // the node's sim.PurposeRouting stream
	medium  *phy.Medium
	ctrlTx  uint64
}

var _ Router = (*DSR)(nil)

// NewDSR attaches a DSR node to the medium.
func NewDSR(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility) *DSR {
	d := &DSR{
		k:       k,
		medium:  medium,
		routes:  make(map[int]cachedRoute),
		pending: make(map[int]*pendingDiscovery),
		seenReq: make(map[int]map[int]bool),
		seenSeq: make(map[uint64]bool),
	}
	d.radio = medium.Attach(mobility)
	d.id = d.radio.ID()
	d.rng = k.Stream(d.id, sim.PurposeRouting)
	d.radio.SetHandler(d.onFrame)
	return d
}

// ID implements Router.
func (d *DSR) ID() int { return d.id }

// transmit broadcasts wire, a buffer from the medium's wire pool, after the
// MAC-backoff jitter; the medium takes the buffer back.
func (d *DSR) transmit(wire []byte) {
	d.medium.BroadcastOwnedAfter(d.rng.Jitter(txJitter), d.radio, wire, nil, &d.running)
}

// transmitRepeated puts wire, a pooled buffer, on the air hopRepeats times
// (MAC ARQ model); each repetition is separately counted and jittered, and
// goes out in a pooled copy of its own, as the medium takes back each wire
// when its transmission is over.
func (d *DSR) transmitRepeated(wire []byte, count *uint64) {
	for i := 0; i < hopRepeats; i++ {
		w := wire
		if i < hopRepeats-1 {
			w = append(d.medium.Wire(len(wire)), wire...)
		}
		d.medium.BroadcastOwnedAfter(time.Duration(i)*txJitter+d.rng.Jitter(txJitter), d.radio, w, count, &d.running)
	}
}

// dedupe reports whether a (src, seq) frame was already processed here.
func (d *DSR) dedupe(src int, seq uint32) bool {
	key := uint64(uint32(src))<<32 | uint64(seq)
	if d.seenSeq[key] {
		return true
	}
	if len(d.seenSeq) > 8192 {
		d.seenSeq = make(map[uint64]bool, 1024)
	}
	d.seenSeq[key] = true
	return false
}

// SetDeliver implements Router.
func (d *DSR) SetDeliver(fn func(src int, payload []byte)) { d.deliver = fn }

// ControlTransmissions implements Router.
func (d *DSR) ControlTransmissions() uint64 { return d.ctrlTx }

// Start implements Router.
func (d *DSR) Start() { d.running = true }

// HasRoute reports whether a live cached route to dst exists.
func (d *DSR) HasRoute(dst int) bool {
	r, ok := d.routes[dst]
	return ok && d.k.Now()-r.since <= dsrRouteTTL
}

// InvalidateRoute drops the cached route to dst; upper layers call this when
// deliveries time out (our simplified stand-in for DSR route-error
// maintenance).
func (d *DSR) InvalidateRoute(dst int) {
	delete(d.routes, dst)
}

// Send implements Router: source-route if a route is cached, otherwise
// buffer the payload and launch route discovery. Returns false only when
// the discovery buffer is full.
func (d *DSR) Send(dst int, payload []byte) bool {
	if dst == d.id {
		if d.deliver != nil {
			d.deliver(d.id, payload)
		}
		return true
	}
	if d.HasRoute(dst) {
		d.sendAlong(d.routes[dst].hops, payload)
		return true
	}
	p, ok := d.pending[dst]
	if !ok {
		p = &pendingDiscovery{}
		p.timer = d.k.NewTimer(func() { d.discoveryTimeout(dst, p) })
		d.pending[dst] = p
		d.launchDiscovery(dst, p)
	}
	if len(p.payloads) >= bufferLimit {
		return false
	}
	p.payloads = append(p.payloads, append([]byte(nil), payload...))
	return true
}

// launchDiscovery floods a route request for dst.
func (d *DSR) launchDiscovery(dst int, p *pendingDiscovery) {
	if !d.running {
		return
	}
	d.reqID++
	f := &frame{
		Proto:   protoRREQ,
		Src:     d.id,
		Dst:     dst,
		NextHop: Broadcast,
		TTL:     maxHops,
		Route:   []int{d.id},
		Payload: putU32(nil, d.reqID),
	}
	d.markSeen(d.id, d.reqID)
	d.ctrlTx++
	d.transmit(f.wire(d.medium))

	p.timer.Reset(discoveryRound)
}

// discoveryTimeout retries (or abandons) an unanswered route discovery.
func (d *DSR) discoveryTimeout(dst int, p *pendingDiscovery) {
	if d.pending[dst] != p || d.HasRoute(dst) {
		return
	}
	p.retries++
	if p.retries >= maxDiscoveryRetries {
		delete(d.pending, dst) // drop buffered payloads
		return
	}
	d.launchDiscovery(dst, p)
}

// markSeen records route request id of origin as seen: onFrame drops its
// flood from then on.
func (d *DSR) markSeen(origin, id int) {
	set, ok := d.seenReq[origin]
	if !ok {
		set = make(map[int]bool)
		d.seenReq[origin] = set
	}
	set[id] = true
}

// sendAlong transmits a source-routed data frame along hops (hops[0] is the
// origin). A zero seq means this node originates the frame and stamps a
// fresh sequence number.
func (d *DSR) sendAlong(hops []int, payload []byte) {
	d.txSeq++
	d.forwardAlong(hops, payload, d.txSeq)
}

func (d *DSR) forwardAlong(hops []int, payload []byte, seq uint32) {
	idx := indexOf(hops, d.id)
	if idx < 0 || idx+1 >= len(hops) {
		return
	}
	f := &frame{
		Proto:   protoData,
		Src:     hops[0],
		Dst:     hops[len(hops)-1],
		NextHop: hops[idx+1],
		TTL:     maxHops,
		Seq:     seq,
		Route:   hops,
		Payload: payload,
	}
	d.transmitRepeated(f.wire(d.medium), nil)
}

func indexOf(hops []int, id int) int {
	for i, h := range hops {
		if h == id {
			return i
		}
	}
	return -1
}

func (d *DSR) onFrame(fr phy.Frame) {
	if !d.running {
		return
	}
	f, err := decodeFrame(fr.Payload)
	if err != nil {
		return
	}
	// Unicasts overheard on their way through someone else, and route
	// requests whose flood already passed here, are dropped before their
	// source route is materialised.
	if (f.Proto == protoRREP || f.Proto == protoData) && f.NextHop != d.id {
		return
	}
	if f.Proto == protoRREQ && len(f.Payload) >= 4 && d.seenReq[f.Src][getI32(f.Payload)] {
		return
	}
	f.decodeRoute()
	switch f.Proto {
	case protoRREQ:
		d.handleRREQ(f)
	case protoRREP:
		d.handleRREP(f)
	case protoData:
		d.handleData(f)
	}
}

// handleRREQ appends this node to the route record and either answers (we
// are the target) or re-floods.
func (d *DSR) handleRREQ(f frame) {
	if len(f.Payload) < 4 {
		return
	}
	reqID := getI32(f.Payload)
	if indexOf(f.Route, d.id) >= 0 {
		return // already on the path
	}
	d.markSeen(f.Src, reqID) // onFrame dropped the flood if it was seen before
	// Into decodeRoute's spare slot: nothing has kept f.Route, and route has
	// no capacity left for the cached-route reply's append to write into.
	route := append(f.Route, d.id)
	if f.Dst == d.id {
		// Answer along the reverse of the accumulated route.
		d.routes[f.Src] = cachedRoute{hops: reverse(route), since: d.k.Now()}
		rep := &frame{
			Proto:   protoRREP,
			Src:     d.id,
			Dst:     f.Src,
			NextHop: route[len(route)-2],
			Route:   route,
		}
		d.ctrlTx++
		d.transmit(rep.wire(d.medium))
		return
	}
	// Cached-route reply (standard DSR): an intermediate holding a live
	// route to the target answers directly and suppresses its re-flood,
	// shrinking discovery storms dramatically.
	if cached, ok := d.routes[f.Dst]; ok && d.k.Now()-cached.since <= 5*time.Second {
		if sub := indexOf(cached.hops, d.id); sub >= 0 && !overlaps(f.Route, cached.hops[sub+1:]) {
			full := append(route, cached.hops[sub+1:]...)
			d.routes[f.Src] = cachedRoute{hops: reverse(route), since: d.k.Now()}
			rep := &frame{
				Proto:   protoRREP,
				Src:     d.id,
				Dst:     f.Src,
				NextHop: route[len(route)-2],
				Route:   full,
			}
			d.ctrlTx++
			d.transmit(rep.wire(d.medium))
			return
		}
	}
	if f.TTL <= 0 {
		return
	}
	fwd := &frame{
		Proto: protoRREQ, Src: f.Src, Dst: f.Dst, NextHop: Broadcast,
		TTL: f.TTL - 1, Route: route, Payload: f.Payload,
	}
	d.medium.BroadcastOwnedAfter(d.rng.Jitter(floodJitter), d.radio, fwd.wire(d.medium), &d.ctrlTx, &d.running)
}

// overlaps reports whether the two hop lists share any node (a spliced
// route must not loop).
func overlaps(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func reverse(hops []int) []int {
	out := make([]int, len(hops))
	for i, h := range hops {
		out[len(hops)-1-i] = h
	}
	return out
}

// handleRREP relays the reply back toward the requester, caching the route
// at the requester when it arrives.
func (d *DSR) handleRREP(f frame) {
	if f.Dst == d.id {
		// f.Route is origin..target in request direction.
		d.routes[f.Route[len(f.Route)-1]] = cachedRoute{hops: f.Route, since: d.k.Now()}
		if p, ok := d.pending[f.Route[len(f.Route)-1]]; ok {
			p.timer.Stop()
			delete(d.pending, f.Route[len(f.Route)-1])
			for _, payload := range p.payloads {
				d.sendAlong(f.Route, payload)
			}
		}
		return
	}
	idx := indexOf(f.Route, d.id)
	if idx <= 0 {
		return
	}
	// Opportunistic caching: intermediate nodes learn the sub-route to the
	// target, a standard DSR optimization.
	d.routes[f.Route[len(f.Route)-1]] = cachedRoute{hops: f.Route[idx:], since: d.k.Now()}
	rep := &frame{Proto: protoRREP, Src: f.Src, Dst: f.Dst, NextHop: f.Route[idx-1], Route: f.Route}
	d.ctrlTx++
	d.transmit(rep.wire(d.medium))
}

// handleData forwards along the embedded source route or delivers. The
// receiver caches the reverse of the traversed route — wireless links are
// bidirectional, so a frame's source route is a free route back to its
// origin (standard DSR optimization; without it every reply needs its own
// discovery flood).
func (d *DSR) handleData(f frame) {
	if d.dedupe(f.Src, f.Seq) {
		return
	}
	idx := indexOf(f.Route, d.id)
	if idx > 0 {
		d.routes[f.Src] = cachedRoute{hops: reverse(f.Route[:idx+1]), since: d.k.Now()}
	}
	if f.Dst == d.id {
		if d.deliver != nil {
			d.deliver(f.Src, f.Payload)
		}
		return
	}
	d.forwardAlong(f.Route, f.Payload, f.Seq)
}
