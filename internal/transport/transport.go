// Package transport provides the end-to-end services the IP baselines use on
// top of internal/routing: a reliable message service with acknowledgements,
// retransmission timeouts, and exponential backoff (standing in for TCP in
// Bithoc), and a fire-and-forget datagram service (UDP in Ekta).
//
// The paper attributes part of Bithoc's overhead to TCP's degradation over
// multiple wireless hops [Holland & Vaidya]; the retransmission machinery
// here reproduces that cost on the shared medium.
package transport

import (
	"encoding/binary"
	"time"

	"dapes/internal/routing"
	"dapes/internal/sim"
)

// Message kinds inside a transport payload.
const (
	msgData = 1
	msgAck  = 2
)

// The reliable service's timers.
const (
	// rto is the initial retransmission timeout; it doubles per retry (the
	// backoff is capped at 8x rto, as deployed TCPs cap theirs).
	rto = 500 * time.Millisecond
	// maxRetries bounds retransmissions before the message fails.
	maxRetries = 5
	// jitter randomizes each transmission's start, standing in for the MAC
	// layer's random backoff; without it, synchronized retransmissions
	// collide repeatedly on the shared medium.
	jitter = 20 * time.Millisecond
)

// Reliable is an acknowledged message service over a Router.
type Reliable struct {
	k      *sim.Kernel
	router routing.Router
	rng    sim.Stream // the node's sim.PurposeTransport stream
	// retryLimit is maxRetries, the retransmissions a message gets before
	// it fails; a field only so that a test under heavy loss can raise it.
	retryLimit int

	nextID  uint32
	pending map[uint32]*outstanding
	free    []*outstanding // retired records, reused with their timers
	acks    []*ackJob      // ack records not waiting out a jitter
	// seen tracks delivered message IDs per source. Entries are compacted
	// once a sender can no longer retransmit them (see seenTTL), so the
	// state is bounded by the duplicate window instead of growing with
	// every message ever delivered — the same fix the phy layer's
	// txWindows needed for transmit-heavy radios.
	seen   map[int]*seenSet
	onRecv func(src int, payload []byte)
	onFail func(id uint32, dst int)

	// Retransmissions counts timeout-driven resends (TCP-style overhead).
	Retransmissions uint64
	// Failures counts messages dropped after maxRetries.
	Failures uint64
	// AcksSent counts acknowledgement transmissions.
	AcksSent uint64
}

// outstanding is one unacknowledged message. It owns the message's segment
// (the msgData header followed by the caller's payload, built once in Send and
// re-sent byte for byte by every attempt) and its timers: the RTO timer is a
// reusable sim.Timer that each retransmission re-arms (Reset, no per-attempt
// closure or event), and the jittered transmission is a single method value
// re-enqueued per attempt through the kernel's pooled ScheduleFunc path.
//
// Records are pooled on the Reliable, segment buffer and timer included. A
// record leaves pending when its message is acked, abandoned or flushed by
// Stop, and returns to the pool once no jittered send of it is still queued
// (sendQueued): a recycled record must not be reachable from a stale event.
type outstanding struct {
	r          *Reliable
	id         uint32
	dst        int
	seg        []byte
	retries    int
	rto        time.Duration
	sendQueued bool
	sendFn     func()
	rtoT       *sim.Timer
	onDone     func(ok bool)
}

// NewReliable wraps the router with the acknowledged service. It installs
// itself as the router's deliver callback.
func NewReliable(k *sim.Kernel, router routing.Router) *Reliable {
	r := &Reliable{
		k:          k,
		router:     router,
		rng:        k.Stream(router.ID(), sim.PurposeTransport),
		retryLimit: maxRetries,
		pending:    make(map[uint32]*outstanding),
		seen:       make(map[int]*seenSet),
	}
	router.SetDeliver(r.onRouterDeliver)
	return r
}

// SetReceive installs the application receive callback.
func (r *Reliable) SetReceive(fn func(src int, payload []byte)) { r.onRecv = fn }

// SetOnFail installs a callback invoked when a message is abandoned after
// maxRetries (the same event the Failures counter records): the transport
// has given up on dst for this message, so the layer above can re-plan —
// re-queue the work through another peer, or trigger re-discovery —
// instead of stalling on a silent counter. It fires after the stale route
// is invalidated and before the message's own onDone.
func (r *Reliable) SetOnFail(fn func(id uint32, dst int)) { r.onFail = fn }

// Send transmits payload to dst with at-least-once delivery and duplicate
// suppression at the receiver. onDone (optional) reports final success or
// failure. payload is copied; the caller may reuse it.
func (r *Reliable) Send(dst int, payload []byte, onDone func(ok bool)) {
	r.nextID++
	var out *outstanding
	if n := len(r.free); n > 0 {
		out = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		out = &outstanding{r: r}
		out.sendFn = out.send
		out.rtoT = r.k.NewTimer(out.timeout)
	}
	out.id, out.dst, out.retries, out.rto, out.onDone = r.nextID, dst, 0, rto, onDone
	out.seg = append(out.seg[:0], msgData)
	out.seg = binary.BigEndian.AppendUint32(out.seg, out.id)
	out.seg = append(out.seg, payload...)
	r.pending[out.id] = out
	r.transmit(out)
}

// Stop abandons every unacknowledged message without reporting it: RTO
// timers are disarmed, pending is cleared, and neither onFail nor onDone
// runs. Sends already waiting out their jitter find their message gone and
// do nothing. The service stays usable for new messages.
func (r *Reliable) Stop() {
	// Map order only decides pool order, and pooled records are reset before reuse.
	for id, out := range r.pending {
		delete(r.pending, id)
		r.retire(out)
	}
}

// retire disarms a record that has left pending and pools it, unless a
// jittered send still references it — that send pools it when it fires.
func (r *Reliable) retire(out *outstanding) {
	out.rtoT.Stop()
	out.onDone = nil
	if !out.sendQueued {
		r.free = append(r.free, out)
	}
}

// transmit arms one attempt: the jittered transmission and the
// retransmission timeout that re-arms it. The jitter slot is shorter than
// any RTO, so at most one send per record is ever queued.
func (r *Reliable) transmit(out *outstanding) {
	out.sendQueued = true
	r.k.ScheduleFunc(r.rng.Jitter(jitter), out.sendFn)
	out.rtoT.Reset(jitter + out.rto)
}

func (o *outstanding) send() {
	r := o.r
	o.sendQueued = false
	if r.pending[o.id] != o {
		// Acked, abandoned or stopped between scheduling and the jitter slot.
		r.free = append(r.free, o)
		return
	}
	// A false return means no route yet (e.g. DSDV still converging);
	// the retry timer covers that case too.
	r.router.Send(o.dst, o.seg)
}

func (o *outstanding) timeout() {
	r := o.r
	if r.pending[o.id] != o {
		return
	}
	o.retries++
	if o.retries > r.retryLimit {
		id, dst, onDone := o.id, o.dst, o.onDone
		delete(r.pending, id)
		r.retire(o)
		r.Failures++
		if rt, isDSR := r.router.(*routing.DSR); isDSR {
			rt.InvalidateRoute(dst)
		}
		if r.onFail != nil {
			r.onFail(id, dst)
		}
		if onDone != nil {
			onDone(false)
		}
		return
	}
	r.Retransmissions++
	o.rto *= 2
	if maxRTO := 8 * rto; o.rto > maxRTO {
		o.rto = maxRTO // cap backoff, as TCP implementations do
	}
	r.transmit(o)
}

func (r *Reliable) onRouterDeliver(src int, payload []byte) {
	if len(payload) < 5 {
		return
	}
	kind := payload[0]
	id := binary.BigEndian.Uint32(payload[1:5])
	switch kind {
	case msgData:
		// Ack unconditionally (acks are lost sometimes; sender retries).
		r.scheduleAck(src, id)

		s, ok := r.seen[src]
		if !ok {
			s = &seenSet{ids: make(map[uint32]time.Duration)}
			r.seen[src] = s
		}
		now := r.k.Now()
		_, dup := s.ids[id]
		s.ids[id] = now
		if len(s.ids) >= seenCompactLen && now >= s.nextSweep {
			r.compactSeen(s.ids, now)
			// One sweep per TTL at most: when every entry is still inside
			// its duplicate window the sweep frees nothing, and retrying it
			// on each delivery would turn the O(1) dup check into an
			// O(live-window) scan per message.
			s.nextSweep = now + seenTTL
		}
		if dup {
			return // duplicate
		}
		if r.onRecv != nil {
			r.onRecv(src, payload[5:])
		}
	case msgAck:
		out, ok := r.pending[id]
		if !ok {
			return
		}
		onDone := out.onDone
		delete(r.pending, id)
		r.retire(out)
		if onDone != nil {
			onDone(true)
		}
	}
}

// ackJob is one acknowledgement waiting out its jitter: the segment and
// where it goes. Records are pooled on the Reliable and keep their event func
// (fire, the method value of send) for life, so an ack allocates nothing.
type ackJob struct {
	r    *Reliable
	src  int
	seg  [5]byte
	fire func()
}

// scheduleAck queues the ack of message id to src after the jitter.
func (r *Reliable) scheduleAck(src int, id uint32) {
	var a *ackJob
	if n := len(r.acks); n > 0 {
		a = r.acks[n-1]
		r.acks[n-1] = nil
		r.acks = r.acks[:n-1]
	} else {
		a = &ackJob{r: r}
		a.fire = a.send
	}
	a.src = src
	a.seg[0] = msgAck
	binary.BigEndian.PutUint32(a.seg[1:], id)
	r.k.ScheduleFunc(r.rng.Jitter(jitter), a.fire)
}

// send puts the ack on the router. Send copies what it keeps, so the record
// is pooled again once it returns.
func (a *ackJob) send() {
	r := a.r
	r.AcksSent++
	r.router.Send(a.src, a.seg[:])
	r.acks = append(r.acks, a)
}

// Pending returns the number of unacknowledged messages.
//
//lint:ignore unreferenced bithoc's TestStopSilences pins Pending() == 0 once a peer stops
func (r *Reliable) Pending() int { return len(r.pending) }

// seenSet is one source's duplicate-suppression state.
type seenSet struct {
	ids map[uint32]time.Duration // delivered ID -> last arrival time
	// nextSweep is the earliest virtual time another compaction may run;
	// it rate-limits sweeps to one per seenTTL so a live window larger
	// than seenCompactLen cannot trigger a full scan on every delivery.
	nextSweep time.Duration
}

// seenCompactLen is the per-source size at which the duplicate-suppression
// set becomes eligible for compaction (size alone does not trigger a sweep;
// see seenSet.nextSweep). The threshold is far above the live window of any
// simulated workload, so steady state never sweeps; sustained workloads
// whose live window genuinely exceeds it sweep at most once per TTL and are
// bounded by live-window + one TTL of traffic.
const seenCompactLen = 1024

// seenTTL is how long a delivered message ID can still produce a duplicate:
// the sender schedules each of its maxRetries retransmissions at most
// jitter + 8·rto (the backoff cap) after the previous one, so an ID whose
// last arrival is older than this window is unreachable by any future
// retransmission and safe to forget. One extra period absorbs in-flight
// delivery latency.
const seenTTL = (maxRetries + 2) * (jitter + 8*rto)

// compactSeen drops IDs whose duplicate window has lapsed. Map iteration
// order does not matter: each entry is judged only against the clock.
func (r *Reliable) compactSeen(set map[uint32]time.Duration, now time.Duration) {
	for id, at := range set {
		if now-at > seenTTL {
			delete(set, id)
		}
	}
}

// Datagram is the unreliable service: a thin veneer over the router that
// multiplexes with Reliable-format payloads (kind byte 0).
type Datagram struct {
	router routing.Router
	onRecv func(src int, payload []byte)
}

// NewDatagram wraps the router. It installs itself as the deliver callback,
// so use either Reliable or Datagram per router, not both.
func NewDatagram(router routing.Router) *Datagram {
	d := &Datagram{router: router}
	router.SetDeliver(func(src int, payload []byte) {
		if d.onRecv != nil {
			d.onRecv(src, payload)
		}
	})
	return d
}

// SetReceive installs the receive callback.
func (d *Datagram) SetReceive(fn func(src int, payload []byte)) { d.onRecv = fn }

// Send transmits best-effort.
func (d *Datagram) Send(dst int, payload []byte) bool {
	return d.router.Send(dst, payload)
}
