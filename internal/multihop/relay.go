package multihop

import (
	"time"

	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

const dupWindow = 2 * time.Second // a nonce re-heard within it is a duplicate or a loop

// Counters are one node's forwarding counters; both node kinds' Stats embed
// them.
type Counters struct {
	InterestsForwarded  uint64
	InterestsSuppressed uint64
	DataForwarded       uint64
	ForwardedAnswered   uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.InterestsForwarded += o.InterestsForwarded
	c.InterestsSuppressed += o.InterestsSuppressed
	c.DataForwarded += o.DataForwarded
	c.ForwardedAnswered += o.ForwardedAnswered
}

// Accuracy returns the fraction of forwarded Interests that brought Data
// back — the paper reports 83% for DAPES (Section VI-D).
func (c Counters) Accuracy() float64 {
	if c.InterestsForwarded == 0 {
		return 0
	}
	return float64(c.ForwardedAnswered) / float64(c.InterestsForwarded)
}

// Relay is one node's hop-by-hop forwarding and suppression state, held by
// a PureForwarder and a core.Peer alike: nonce dedup, the forwarded-Interest
// table with its in-flight window and suppression timers, the
// response-suppressed reply queue, and the jittered re-broadcast of a
// received packet's wire. Which of its questions a node asks, in which order
// and with what in between (Content Store, local serving, the coin or the
// availability speculation) is the owner's and is part of the trace — it is
// the order of the RNG draws. Every answer the tables give is a function of
// an entry's time and now: an entry past its window is absent whether or not
// it has been reclaimed yet.
type Relay struct {
	k      *sim.Kernel
	medium *phy.Medium
	radio  *phy.Radio
	rng    sim.Stream // the node's sim.PurposeRelay stream
	c      *Counters

	running bool
	nonces  *nonceTable       // heard nonces, made by the first note
	fwd     *forwardTable     // forwarded Interests and suppressed names, made by the first forward
	pending map[string]*reply // by Data name URI
	free    *reply            // recycled reply records
}

// reply is one Data reply awaiting its random transmission slot. Records
// (and their kernel timers) are pooled: response suppression cancels replies
// constantly on a dense medium.
type reply struct {
	r       *Relay
	t       *sim.Timer
	d       *ndn.Data
	counter *uint64
	next    *reply // in the free list
}

func (rp *reply) fire() {
	r, d, counter := rp.r, rp.d, rp.counter
	r.release(rp)
	if !r.running {
		return
	}
	*counter++
	r.medium.BroadcastData(r.radio, d)
}

// NewRelay returns the relay state of the node behind radio; c counts.
// It is returned by value for the owner to hold in place, and its tables are
// made by the first insertion into each (a nil table answers every read): at
// 50k nodes, most of which never forward, an object per node shows. Use it
// through a pointer from then on.
func NewRelay(k *sim.Kernel, medium *phy.Medium, radio *phy.Radio, c *Counters) Relay {
	return Relay{
		k: k, medium: medium, radio: radio, c: c,
		rng: k.Stream(radio.ID(), sim.PurposeRelay),
	}
}

// Deliver hands a received frame's packet to the node's handlers, through
// the decode-once view every receiver of the broadcast shares and must treat
// as read-only (phy.Frame). A stopped relay hears nothing; Interests arrive
// deduplicated by nonce, Data after cancelling the reply it pre-empts.
func (r *Relay) Deliver(fr phy.Frame, onInterest func(from int, in *ndn.Interest), onData func(from int, d *ndn.Data)) {
	if !r.running {
		return
	}
	pkt := fr.Packet()
	if in := pkt.Interest(); in != nil {
		if r.noteNonce(in.Nonce, false) {
			onInterest(fr.From, in)
		}
	} else if d := pkt.Data(); d != nil {
		r.CancelReply(d)
		onData(fr.From, d)
	}
}

// Start lets the relay hear and transmit.
func (r *Relay) Start() { r.running = true }

// Stop deafens and silences the relay until Start: pending replies are
// cancelled and sends already queued for their slot fire as no-ops. The
// tables stay.
func (r *Relay) Stop() {
	r.running = false
	// Map order only decides pool order, and pooled records are reset before reuse.
	for _, rp := range r.pending {
		r.release(rp)
	}
}

// Reset wipes the tables: what a cold restart loses. A suppression arming
// already scheduled still fires.
func (r *Relay) Reset() {
	if r.nonces != nil {
		r.nonces.reset()
	}
	if r.fwd != nil {
		r.fwd.wipe()
	}
}

// TableSizes returns the live table entry counts, for state-footprint
// estimates: what the tables would hold had every lapsed entry just gone.
func (r *Relay) TableSizes() (forwarded, suppressed, nonces int) {
	now := r.k.Now()
	if r.fwd != nil {
		forwarded, suppressed = r.fwd.sizes(now)
	}
	if r.nonces != nil {
		nonces = r.nonces.live(now)
	}
	return forwarded, suppressed, nonces
}

// NewNonce draws a nonce for an Interest the node originates and records it:
// the echo of its own Interest is a duplicate.
func (r *Relay) NewNonce() uint32 {
	n := uint32(r.rng.Uint64())
	r.noteNonce(n, true)
	return n
}

// noteNonce records nonce as heard now and reports whether it is new: not
// heard, or drawn, inside the duplicate window. Unless always, a nonce that
// is not new stays as it was.
func (r *Relay) noteNonce(nonce uint32, always bool) bool {
	if r.nonces == nil {
		r.nonces = new(nonceTable)
	}
	return r.nonces.note(nonce, r.k.Now(), always)
}

// Heard reports whether nonce was heard, or drawn, inside the duplicate
// window: an Interest carrying it is a duplicate or a loop, and Deliver drops it.
//
//lint:ignore unreferenced checkNonceOps and core's tapAdvertisements ask it what Deliver decides in its one probe
func (r *Relay) Heard(nonce uint32) bool {
	return r.nonces != nil && r.nonces.heard(nonce, r.k.Now())
}

// Check looks the Interest's name up in the forward table once and reports
// whether it is under a suppression timer — counted if so — and whether it
// was forwarded less than the suppression timer ago and is still unanswered.
func (r *Relay) Check(in *ndn.Interest) (suppressed, inFlight bool) {
	if r.fwd == nil {
		return false, false
	}
	e := r.fwd.lookup(in.NameKey())
	if e == nil {
		return false, false
	}
	now := r.k.Now()
	if now < e.until {
		r.c.InterestsSuppressed++
		suppressed = true
	}
	return suppressed, e.record && !e.answered && now-e.at < SuppressTTL
}

// Forward re-broadcasts the received Interest after a random delay and
// records it: RelayData relays its answer back, and if none comes within the
// suppression timer the name is suppressed for as long again.
//
// A received Interest lives only as long as its transmission (phy.Frame), so
// the record copies what it keeps: the name's URI into the table's key
// ring, and a CanBePrefix record's components as substrings of a copy of
// it; the re-broadcast copies the wire.
func (r *Relay) Forward(in *ndn.Interest) {
	if r.fwd == nil {
		r.fwd = newForwardTable()
	}
	r.fwd.add(in, r.k.Now())
	// The heard wire goes back to the medium's pool with its transmission,
	// so the forward carries the same bytes in a pooled wire of its own.
	heard := in.Encode()
	wire := append(r.medium.Wire(len(heard)), heard...)
	r.medium.BroadcastOwnedAfter(r.rng.Jitter(TransmissionWindow), r.radio, wire, &r.c.InterestsForwarded, &r.running)
	r.k.ScheduleFunc(SuppressTTL, r.fwd.fire)
}

// RelayData re-broadcasts Data that answers a forwarded Interest, back
// toward the requester, and lifts the name's suppression: once for an exact
// record, once per distinct Data name for a CanBePrefix record.
func (r *Relay) RelayData(d *ndn.Data) {
	if r.fwd == nil {
		return
	}
	rec := r.fwd.match(d, r.k.Now())
	if rec == nil {
		return
	}
	if rec.prefix != nil {
		if rec.prefix.relayed[d.NameKey()] {
			return
		}
		rec.prefix.relayed[d.NameKey()] = true
	} else if rec.answered {
		return
	}
	if !rec.answered {
		rec.answered = true
		r.c.ForwardedAnswered++
	}
	rec.until = 0
	// A Data record is write-once (phy.Frame): the relay re-sends the very
	// record it heard, and its receivers share it too.
	r.medium.BroadcastDataAfter(r.rng.Jitter(TransmissionWindow), r.radio, d, &r.c.DataForwarded, &r.running)
}

// ScheduleReply broadcasts d after a random delay, bumping counter when it
// goes out, unless another node answers first (CancelReply) or a reply for
// the name is already pending. Stored packets keep their wire form, so
// repeat replies reuse one encoding, and every receiver is handed d itself
// (phy.Medium.BroadcastData).
func (r *Relay) ScheduleReply(d *ndn.Data, counter *uint64) {
	key := d.NameKey()
	if _, pending := r.pending[key]; pending {
		return
	}
	rp := r.free
	if rp != nil {
		r.free = rp.next
	} else {
		rp = &reply{r: r}
		rp.t = r.k.NewTimer(rp.fire)
	}
	rp.d, rp.counter = d, counter
	if r.pending == nil {
		r.pending = make(map[string]*reply)
	}
	r.pending[key] = rp
	rp.t.Reset(r.rng.Jitter(TransmissionWindow))
}

// CancelReply is response suppression: d was heard, so a pending reply of
// the same name is cancelled. Deliver does it for every Data.
func (r *Relay) CancelReply(d *ndn.Data) {
	if rp, ok := r.pending[d.NameKey()]; ok {
		r.release(rp)
	}
}

// release takes a reply out of the queue and recycles its record.
func (r *Relay) release(rp *reply) {
	rp.t.Stop()
	delete(r.pending, rp.d.NameKey())
	rp.d, rp.counter = nil, nil
	rp.next, r.free = r.free, rp
}
