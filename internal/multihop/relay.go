package multihop

import (
	"strings"
	"time"

	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

const (
	dupWindow    = 2 * time.Second // a nonce re-heard within it is a duplicate or a loop
	compactFloor = 32              // table entries a relay holds before it first compacts
)

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
	rng    sim.Stream    // the node's sim.PurposeRelay stream
	window time.Duration // TransmissionWindow: the jitter bound of every send
	ttl    time.Duration // SuppressTTL
	c      *Counters

	running    bool
	prefixes   int32 // CanBePrefix records in forwarded (shares running's word: 50k nodes hold one of these)
	compactAt  int32 // table entries at which the next insertion compacts
	nonces     map[uint32]time.Duration
	forwarded  map[string]*forwardRecord // by Interest name URI
	suppressed map[string]time.Duration  // by Interest name URI, until when
	pending    map[string]*reply         // by Data name URI
	free       *reply                    // recycled reply records
}

// forwardRecord tracks one forwarded Interest awaiting Data.
type forwardRecord struct {
	r        *Relay
	key      string // its key in forwarded and suppressed
	at       time.Duration
	answered bool
	prefix   *prefixRecord // the record itself if the Interest was CanBePrefix, else nil
}

// prefixRecord is a forwardRecord with what only a CanBePrefix Interest
// needs; an exact record's answered bit says as much.
type prefixRecord struct {
	forwardRecord
	name    ndn.Name        // confirms a match the URI walk found
	relayed map[string]bool // Data name URIs relayed, once each
}

// arm suppresses the name if the forward brought nothing back. It was
// scheduled at the forward (a sim.Kernel.ScheduleCall of the record, which
// allocates nothing), so it runs before an Interest arriving at the same
// instant.
func arm(v any) {
	rec := v.(*forwardRecord)
	if !rec.answered {
		rec.r.suppressed[rec.key] = rec.r.k.Now() + rec.r.ttl
		rec.r.inserted()
	}
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
	r.medium.Broadcast(r.radio, d.Encode())
}

// NewRelay returns the relay state of the node behind radio: window bounds
// the random delay before each send, ttl is the suppression timer, c counts.
// It is returned by value for the owner to hold in place: at 50k nodes an
// object per node shows. Use it through a pointer from then on.
func NewRelay(k *sim.Kernel, medium *phy.Medium, radio *phy.Radio, window, ttl time.Duration, c *Counters) Relay {
	return Relay{
		k: k, medium: medium, radio: radio, window: window, ttl: ttl, c: c,
		rng:        k.Stream(radio.ID(), sim.PurposeRelay),
		compactAt:  compactFloor,
		nonces:     make(map[uint32]time.Duration),
		forwarded:  make(map[string]*forwardRecord),
		suppressed: make(map[string]time.Duration),
		pending:    make(map[string]*reply),
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
		if !r.Heard(in.Nonce) {
			r.nonces[in.Nonce] = r.k.Now()
			r.inserted()
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
	//lint:ignore maporder timer cancellation and free-list refill only; recycled records are reset before reuse, so pool order never reaches the trace
	for _, rp := range r.pending {
		r.release(rp)
	}
}

// Reset wipes the tables: what a cold restart loses.
func (r *Relay) Reset() {
	clear(r.nonces)
	clear(r.forwarded)
	clear(r.suppressed)
	r.prefixes, r.compactAt = 0, compactFloor
}

// inserted follows every table insertion: once the tables together hold
// twice what survived the last compaction, the lapsed entries go. The cost
// is amortised over the insertions that doubled them, and a relay holding
// fewer than compactFloor entries never iterates a table.
func (r *Relay) inserted() {
	if len(r.nonces)+len(r.forwarded)+len(r.suppressed) < int(r.compactAt) {
		return
	}
	forwarded, suppressed, nonces := r.count(true)
	r.compactAt = int32(max(compactFloor, 2*(forwarded+suppressed+nonces)))
}

// TableSizes returns the live table entry counts, for state-footprint
// estimates: what the tables would hold had every lapsed entry just gone.
func (r *Relay) TableSizes() (forwarded, suppressed, nonces int) { return r.count(false) }

// count walks the tables and returns how many of their entries are live;
// with reclaim it deletes the others.
func (r *Relay) count(reclaim bool) (forwarded, suppressed, nonces int) {
	now := r.k.Now()
	for nonce, at := range r.nonces {
		if now-at < dupWindow {
			nonces++
		} else if reclaim {
			delete(r.nonces, nonce)
		}
	}
	for _, rec := range r.forwarded {
		if r.fresh(rec) {
			forwarded++
		} else if reclaim {
			r.drop(rec)
		}
	}
	for key, until := range r.suppressed {
		if now < until {
			suppressed++
		} else if reclaim {
			delete(r.suppressed, key)
		}
	}
	return forwarded, suppressed, nonces
}

// NewNonce draws a nonce for an Interest the node originates and records it:
// the echo of its own Interest is a duplicate.
func (r *Relay) NewNonce() uint32 {
	n := uint32(r.rng.Uint64())
	r.nonces[n] = r.k.Now()
	r.inserted()
	return n
}

// Heard reports whether nonce was heard, or drawn, inside the duplicate
// window: an Interest carrying it is a duplicate or a loop, and Deliver drops it.
func (r *Relay) Heard(nonce uint32) bool {
	at, seen := r.nonces[nonce]
	return seen && r.k.Now()-at < dupWindow
}

// Suppressed reports whether the Interest's name is under a suppression
// timer, and counts it if so.
func (r *Relay) Suppressed(in *ndn.Interest) bool {
	until, ok := r.suppressed[in.NameKey()]
	if !ok || r.k.Now() >= until {
		return false
	}
	r.c.InterestsSuppressed++
	return true
}

// InFlight reports whether the same name was forwarded less than the
// suppression timer ago and is still unanswered.
func (r *Relay) InFlight(in *ndn.Interest) bool {
	rec, ok := r.forwarded[in.NameKey()]
	return ok && !rec.answered && r.k.Now()-rec.at < r.ttl
}

// Forward re-broadcasts the received Interest after a random delay and
// records it: RelayData relays its answer back, and if none comes within the
// suppression timer the name is suppressed for as long again.
func (r *Relay) Forward(in *ndn.Interest) {
	key := in.NameKey()
	if old, ok := r.forwarded[key]; ok {
		r.drop(old)
	}
	var rec *forwardRecord
	if in.CanBePrefix {
		pr := &prefixRecord{name: in.Name.Clone(), relayed: make(map[string]bool, 1)}
		pr.prefix, rec = pr, &pr.forwardRecord
		r.prefixes++
	} else {
		rec = new(forwardRecord)
	}
	rec.r, rec.key, rec.at = r, key, r.k.Now()
	r.forwarded[key] = rec
	r.inserted()
	r.rebroadcast(in.Encode(), &r.c.InterestsForwarded)
	r.k.ScheduleCall(r.ttl, arm, rec)
}

// fresh reports whether a forward record still answers Data: for twice the
// suppression timer after the forward, the in-flight window and the
// suppression it may arm.
func (r *Relay) fresh(rec *forwardRecord) bool {
	return r.k.Now()-rec.at <= 2*r.ttl
}

func (r *Relay) drop(rec *forwardRecord) {
	delete(r.forwarded, rec.key)
	if rec.prefix != nil {
		r.prefixes--
	}
}

// RelayData re-broadcasts Data that answers a forwarded Interest, back
// toward the requester, and lifts the name's suppression: once for an exact
// record, once per distinct Data name for a CanBePrefix record.
func (r *Relay) RelayData(d *ndn.Data) {
	rec := r.match(d)
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
	delete(r.suppressed, rec.key)
	r.rebroadcast(d.Encode(), &r.c.DataForwarded)
}

// match finds the forwarded-Interest record the Data satisfies: its exact
// name, else the longest CanBePrefix record whose name prefixes it (e.g.
// discovery and bitmap signaling whose replies extend the request name).
// Records are keyed by URI and a name's prefixes are its URI cut at a '/',
// so the walk goes from the full key to the root, one lookup per component:
// the choice never depends on map order, and two records cannot tie because
// equal-length prefixes of one name share a key. The walk is skipped while
// the table holds no CanBePrefix record. A record past its lifetime is
// passed over as if it were gone.
func (r *Relay) match(d *ndn.Data) *forwardRecord {
	key := d.NameKey()
	if rec, ok := r.forwarded[key]; ok && r.fresh(rec) {
		return rec
	}
	if r.prefixes == 0 {
		return nil
	}
	for len(key) > 1 {
		key = key[:strings.LastIndexByte(key, '/')]
		if key == "" {
			key = "/"
		}
		// IsPrefixOf guards the one case where URIs overstate a match: a
		// component that itself contains '/'.
		if rec, ok := r.forwarded[key]; ok && rec.prefix != nil && r.fresh(rec) && rec.prefix.name.IsPrefixOf(d.Name) {
			return rec
		}
	}
	return nil
}

// rebroadcast relays a received packet's wire, exactly as it arrived, after
// a random delay, bumping counter when it goes out.
func (r *Relay) rebroadcast(wire []byte, counter *uint64) {
	r.medium.BroadcastAfter(r.rng.Jitter(r.window), r.radio, wire, counter, &r.running)
}

// ScheduleReply broadcasts d after a random delay, bumping counter when it
// goes out, unless another node answers first (CancelReply) or a reply for
// the name is already pending. Stored packets keep their wire form, so
// repeat replies reuse one encoding.
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
	r.pending[key] = rp
	rp.t.Reset(r.rng.Jitter(r.window))
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
