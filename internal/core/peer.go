package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/geo"
	"dapes/internal/keys"
	"dapes/internal/metadata"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
	"dapes/internal/peba"
	"dapes/internal/phy"
	"dapes/internal/rpf"
	"dapes/internal/sim"
)

// Peer is one DAPES node: producer, downloader, repository, or intermediate.
// A Peer is driven entirely by the simulation kernel; it is not safe for
// concurrent use from multiple goroutines.
type Peer struct {
	id     int
	k      *sim.Kernel
	medium *phy.Medium
	radio  *phy.Radio
	rng    sim.Stream // the node's sim.PurposePeer stream; PEBA and RPF draw from it too
	key    *keys.Key
	trust  *keys.TrustStore
	cfg    Config
	stats  Stats

	collections map[string]*collectionState // by collectionState.uri
	wanted      []string                    // subscription prefixes, as URIs
	neighbors   map[int]*neighbor

	beaconPeriod time.Duration
	beaconT      *sim.Timer
	sweepT       *sim.Timer
	lastReplyAt  time.Duration
	replySeq     int

	// relay is used by every peer for nonce dedup and the reply queue, and
	// for its forwarded-Interest table only with cfg.Multihop.
	relay multihop.Relay

	// Free lists of pooled records, linked through the records so that each
	// costs the peer one word: in-flight Interest timeouts, each owning one
	// kernel timer and one closure for its lifetime, and data and metadata
	// Interests waiting out their transmission slot.
	inflightFree *inflightTimer
	queuedFree   *queuedInterest

	// Sender-side scratch, rebuilt for each packet and copied into its wire
	// by Encode/SignDigest, so no packet retains it: the name of a data or
	// metadata Interest, a discovery reply or an advertisement, and a bitmap
	// or discovery payload. A reply's offer list and the offers of a reply
	// heard are built in fixed rooms on the stack instead: a field each
	// would take Peer up a size class, which a 50k-node world shows.
	name ndn.Name
	buf  []byte

	running        bool
	recentActivity bool
	onComplete     func(collection ndn.Name, at time.Duration)
}

// NewPeer attaches a peer to the medium with the given mobility. key may be
// nil (packets use digest integrity only); trust may be nil (metadata
// signature checks are skipped), matching the simulation configurations.
func NewPeer(k *sim.Kernel, medium *phy.Medium, mobility geo.Mobility, key *keys.Key, trust *keys.TrustStore, cfg Config) *Peer {
	p := &Peer{
		k:           k,
		medium:      medium,
		key:         key,
		trust:       trust,
		cfg:         cfg.withDefaults(),
		collections: make(map[string]*collectionState),
		neighbors:   make(map[int]*neighbor),
	}
	p.beaconT = k.NewTimer(p.beaconTick)
	p.sweepT = k.NewTimer(p.sweepTick)
	p.radio = medium.Attach(mobility)
	p.id = p.radio.ID()
	p.rng = k.Stream(p.id, sim.PurposePeer)
	p.relay = multihop.NewRelay(k, medium, p.radio, &p.stats.Counters)
	p.beaconPeriod = beaconPeriodMin
	p.radio.SetReceiver(p)
	return p
}

// Receive hands a frame the peer's radio received to its relay.
func (p *Peer) Receive(f phy.Frame) { p.relay.Deliver(f, p.handleInterest, p.handleData) }

// ID returns the peer's network-wide identifier (its radio ID).
func (p *Peer) ID() int { return p.id }

// Stats returns a copy of the peer's protocol counters.
func (p *Peer) Stats() Stats { return p.stats }

// SetOnComplete installs a callback invoked when a subscribed collection
// finishes downloading.
func (p *Peer) SetOnComplete(fn func(collection ndn.Name, at time.Duration)) {
	p.onComplete = fn
}

// Start begins discovery beaconing and housekeeping.
func (p *Peer) Start() {
	if p.running {
		return
	}
	p.running = true
	p.relay.Start()
	p.beaconT.Reset(p.rng.Jitter(p.beaconPeriod))
	p.sweepT.Reset(neighborTTL / 2)
}

// Stop halts the peer: beaconing, housekeeping, pending replies, metadata
// retries, advertisement transmissions, and in-flight Interest timeouts are
// all cancelled, so a stopped peer leaves nothing armed in the kernel and
// Kernel.Pending drains (already-queued one-shot sends no-op on !running
// and fire at most once). Stop is idempotent and Start reverses it.
func (p *Peer) Stop() {
	p.running = false
	p.beaconT.Stop()
	p.sweepT.Stop()
	p.relay.Stop()
	// Map order only decides cancel and pool order, and pooled records are reset before reuse.
	for _, cs := range p.collections {
		if cs.metaT != nil {
			cs.metaT.Stop()
		}
		if cs.txT != nil {
			cs.txT.Stop()
		}
		p.releaseAllInflight(cs)
		cs.fetching = false
	}
}

// Subscribe declares interest in any collection whose name matches prefix.
func (p *Peer) Subscribe(prefix ndn.Name) {
	p.wanted = append(p.wanted, prefix.String())
}

// Publish installs a locally produced collection: the peer holds every
// packet, serves metadata, and advertises full bitmaps.
func (p *Peer) Publish(res *metadata.BuildResult) error {
	m := res.Manifest
	segs, err := m.Segment(metaSegmentSize, p.signer())
	if err != nil {
		return fmt.Errorf("core: publish %s: %w", m.Collection, err)
	}
	cs := newCollectionState(m.Collection)
	cs.metaName = m.MetadataName()
	cs.manifest = m
	cs.metaTotal = len(segs)
	for i, s := range segs {
		cs.metaSegs[i] = s
	}
	p.initManifest(cs)
	for i, pkt := range res.Packets {
		cs.packets[i] = pkt
		cs.own.Set(i)
	}
	cs.done = true
	p.collections[cs.uri] = cs
	return nil
}

// find returns the peer's state for a collection, or nil. The map key is
// rebuilt in a stack buffer and never becomes a string, so the lookup does
// not allocate: completion polls and tests call Done/HasPacket in loops.
func (p *Peer) find(collection ndn.Name) *collectionState {
	var buf [64]byte
	return p.collections[string(collection.AppendURI(buf[:0]))]
}

// signer returns the peer's key as an ndn.Signer, or nil.
func (p *Peer) signer() ndn.Signer {
	if p.key == nil {
		return nil
	}
	return p.key
}

// Progress reports verified packets over total for a collection (0, 0 when
// the collection or its metadata is unknown).
func (p *Peer) Progress(collection ndn.Name) (have, total int) {
	cs := p.find(collection)
	if cs == nil {
		return 0, 0
	}
	return cs.progress()
}

// Done reports whether a subscribed collection has fully downloaded, and when.
func (p *Peer) Done(collection ndn.Name) (bool, time.Duration) {
	cs := p.find(collection)
	if cs == nil {
		return false, 0
	}
	return cs.done, cs.doneAt
}

// ForwardingAccuracy returns the fraction of forwarded Interests that
// brought Data back — the paper reports 83% for DAPES (Section VI-D).
func (p *Peer) ForwardingAccuracy() float64 { return p.stats.Accuracy() }

// MemoryFootprint estimates the bytes of protocol state the peer maintains:
// neighbor tables, availability bitmaps, forwarding records, and suppression
// timers. Table I's "system load" discussion attributes load growth to
// exactly this state.
func (p *Peer) MemoryFootprint() int {
	total := 0
	for _, n := range p.neighbors {
		total += 32 + n.offers.len()*64
	}
	for _, cs := range p.collections {
		if cs.own != nil {
			total += cs.own.Len() / 8
		}
		for _, bm := range cs.avail {
			total += bm.Len() / 8
		}
	}
	forwarded, suppressed, nonces := p.relay.TableSizes()
	return total + forwarded*48 + suppressed*40 + nonces*12
}

// --- Beaconing & discovery (Section IV-B) ---

// beaconTick broadcasts a discovery Interest and adapts the period: halve
// toward the minimum after recent encounters, double toward the maximum in
// isolation.
func (p *Peer) beaconTick() {
	if !p.running {
		return
	}
	p.sendDiscoveryInterest()
	recent := p.recentActivity
	now := p.k.Now()
	for _, n := range p.neighbors {
		if now-n.lastHeard <= beaconPeriodMax {
			recent = true
			break
		}
	}
	if recent {
		p.beaconPeriod /= 2
		if p.beaconPeriod < beaconPeriodMin {
			p.beaconPeriod = beaconPeriodMin
		}
	} else {
		p.beaconPeriod *= 2
		if p.beaconPeriod > beaconPeriodMax {
			p.beaconPeriod = beaconPeriodMax
		}
	}
	p.recentActivity = false
	p.beaconT.Reset(p.beaconPeriod + p.rng.Jitter(multihop.TransmissionWindow))
}

func (p *Peer) sendDiscoveryInterest() {
	p.buf = binary.BigEndian.AppendUint32(p.buf[:0], uint32(p.id))
	in := ndn.Interest{
		Name:        discoveryInterestName(),
		CanBePrefix: true,
		Nonce:       p.relay.NewNonce(),
		AppParams:   p.buf,
	}
	p.stats.DiscoveryInterestsSent++
	p.medium.BroadcastOwned(p.radio, p.interestWire(&in))
}

// sweepTick expires stale neighbors.
func (p *Peer) sweepTick() {
	if !p.running {
		return
	}
	now := p.k.Now()
	for id, n := range p.neighbors {
		if now-n.lastHeard > neighborTTL {
			delete(p.neighbors, id)
			for _, cs := range p.collections {
				delete(cs.avail, id)
				cs.unionStale = true
				if cs.strategy != nil {
					cs.strategy.Disconnect(id)
				}
			}
		}
	}
	p.sweepT.Reset(neighborTTL / 2)
}

// neighborHeard refreshes (or creates) neighbor state, returning it.
func (p *Peer) neighborHeard(id int) *neighbor {
	if id == p.id {
		return nil
	}
	n, ok := p.neighbors[id]
	if !ok {
		n = &neighbor{id: id}
		p.neighbors[id] = n
		p.recentActivity = true
	}
	n.lastHeard = p.k.Now()
	return n
}

// --- Packet dispatch (relay.Deliver: Interests arrive deduplicated by nonce,
// Data after cancelling the pending reply it pre-empts) ---

func (p *Peer) handleInterest(from int, in *ndn.Interest) {
	if sender, ok := isDiscoveryInterest(in); ok {
		p.neighborHeard(sender)
		p.maybeSendDiscoveryReply()
		return
	}
	if isBitmapInterest(in.Name) {
		p.handleBitmapInterest(in)
		return
	}
	if isProtocolName(in.Name) {
		return
	}
	p.handleContentInterest(from, in)
}

func (p *Peer) handleData(from int, d *ndn.Data) {
	p.neighborHeard(from)
	if responder, ok := isDiscoveryReply(d.Name); ok {
		p.handleDiscoveryReply(responder, d)
		return
	}
	if isBitmapData(d.Name) {
		p.handleBitmapData(d)
		return
	}
	if isProtocolName(d.Name) {
		return
	}
	p.handleContentData(d)
	// Section V: Data that answers an Interest this peer forwarded goes back
	// toward the requester, after the peer has taken what it needs of it.
	if p.cfg.Multihop {
		p.relay.RelayData(d)
	}
}

// --- Discovery replies ---

// maybeSendDiscoveryReply answers a discovery Interest with the metadata
// names this peer can offer, rate-limited to one reply per beacon minimum.
func (p *Peer) maybeSendDiscoveryReply() {
	// The limit first: most beacons heard fall inside it, and testing it
	// changes nothing, so those cost no offer list.
	now := p.k.Now()
	if now-p.lastReplyAt < beaconPeriodMin/2 && p.lastReplyAt != 0 {
		return
	}
	var offerRoom [4]ndn.Name
	offers := offerRoom[:0]
	for _, cs := range p.collections {
		if cs.manifest != nil {
			offers = append(offers, cs.metaName)
		}
	}
	if len(offers) == 0 {
		return
	}
	// The offer list is encoded into the reply payload: sort it so the wire
	// bytes don't inherit map-iteration order when a peer publishes more
	// than one collection.
	slices.SortFunc(offers, ndn.Name.Compare)
	p.lastReplyAt = now
	p.replySeq++
	p.name = appendDiscoveryReplyName(p.name[:0], p.id, p.replySeq)
	p.buf = appendDiscoveryPayload(p.buf[:0], offers)
	d := ndn.Data{Name: p.name, Content: p.buf}
	d.SignDigest()
	p.medium.BroadcastAfter(p.rng.Jitter(multihop.TransmissionWindow), p.radio, d.Encode(), &p.stats.DiscoveryDataSent, &p.running)
}

// handleDiscoveryReply learns which collections a neighbor offers and kicks
// off metadata retrieval for subscribed collections (step 2 of Fig. 3).
func (p *Peer) handleDiscoveryReply(responder int, d *ndn.Data) {
	n := p.neighborHeard(responder)
	if n == nil {
		return
	}
	var room [4][]byte
	uris, err := decodeDiscoveryPayload(room[:0], d.Content)
	if err != nil {
		return
	}
	for _, metaURI := range uris {
		// Everything below works on the URI bytes as they arrived, so a
		// reply that teaches nothing new (offer known, state exists) costs
		// no allocation; names are parsed only when a state is created.
		collection, ok := collectionOfMetadataURI(metaURI)
		if !ok {
			continue
		}
		if !n.offers.hasBytes(collection) {
			// The peer's own state holds the URI if it knows the
			// collection; only an unknown one is copied.
			if cs, ok := p.collections[string(collection)]; ok {
				n.offers.add(cs.uri)
			} else {
				n.offers.add(string(collection))
			}
		}
		if !p.wants(collection) {
			continue
		}
		cs, ok := p.collections[string(collection)]
		if !ok {
			cs = newCollectionState(ndn.ParseName(string(collection)))
			cs.startedAt = p.k.Now()
			p.collections[cs.uri] = cs
		}
		cs.subscribed = true
		if cs.metaName == nil {
			cs.metaName = ndn.ParseName(string(metaURI))
		}
		if cs.manifest == nil {
			p.requestNextMetaSegment(cs)
		} else {
			// Metadata known: (re)start the advertisement exchange.
			p.sendBitmapInterest(cs)
		}
	}
}

// wants reports whether the collection (by canonical URI) falls under any
// subscription prefix: component-wise, so /a wants /a and /a/b, not /ab.
func (p *Peer) wants(collection []byte) bool {
	for _, w := range p.wanted {
		if w == "/" || (len(collection) >= len(w) && string(collection[:len(w)]) == w &&
			(len(collection) == len(w) || collection[len(w)] == '/')) {
			return true
		}
	}
	return false
}

// --- Metadata retrieval (Section IV-C) ---

// requestNextMetaSegment fetches the lowest missing metadata segment, with
// timeout-driven retries while the collection remains wanted. The retry
// timer is created once per collection and re-armed across the whole
// segment sequence.
func (p *Peer) requestNextMetaSegment(cs *collectionState) {
	if !p.running || cs.manifest != nil || cs.metaName == nil || (cs.metaT != nil && cs.metaT.Pending()) {
		return
	}
	seq := 0
	for {
		if _, have := cs.metaSegs[seq]; !have {
			break
		}
		seq++
	}
	if cs.metaTotal >= 0 && seq >= cs.metaTotal {
		return
	}
	nonce := p.relay.NewNonce()
	p.queueInterest(p.rng.Jitter(multihop.TransmissionWindow), cs, true, seq, nonce)
	if cs.metaT == nil {
		cs.metaT = p.k.NewTimer(func() { p.requestNextMetaSegment(cs) })
	}
	cs.metaT.Reset(interestTimeout + multihop.TransmissionWindow)
}

// storeMetaSegment records a received metadata segment and assembles the
// manifest once complete.
func (p *Peer) storeMetaSegment(cs *collectionState, seq int, d *ndn.Data) {
	if cs.manifest != nil {
		return
	}
	if _, dup := cs.metaSegs[seq]; dup {
		return
	}
	total, err := metadata.SegmentCount(d)
	if err != nil {
		return
	}
	cs.metaSegs[seq] = d
	cs.metaTotal = total
	if cs.metaT != nil {
		cs.metaT.Stop()
	}
	if len(cs.metaSegs) < total {
		p.requestNextMetaSegment(cs)
		return
	}
	segs := make([]*ndn.Data, 0, total)
	for i := 0; i < total; i++ {
		seg, ok := cs.metaSegs[i]
		if !ok {
			p.requestNextMetaSegment(cs)
			return
		}
		segs = append(segs, seg)
	}
	var verify func(key ndn.Name, msg, sig []byte) bool
	if p.trust != nil {
		verify = p.trust.Verify
	}
	m, err := metadata.Assemble(segs, verify)
	if err != nil {
		// Authentication failure: discard and refetch from scratch (a
		// different neighbor may offer authentic metadata).
		p.stats.VerifyFailures++
		cs.metaSegs = make(map[int]*ndn.Data)
		cs.metaTotal = -1
		return
	}
	cs.manifest = m
	p.initManifest(cs)
	// Step 3 of Fig. 3: advertise and solicit bitmaps.
	p.sendBitmapInterest(cs)
}

// initManifest sizes the bitmaps and instantiates the RPF strategy.
func (p *Peer) initManifest(cs *collectionState) {
	n := cs.manifest.TotalPackets()
	cs.own, cs.busy = bitmap.New(n), bitmap.New(n)
	cs.union, cs.unionStale = bitmap.New(n), true
	if p.cfg.Multihop {
		cs.all = bitmap.New(n)
		cs.all.SetAll()
	}
	switch p.cfg.Strategy {
	case EncounterBasedRPF:
		cs.strategy = rpf.NewEncounterBased(n, encounterHistory, p.cfg.RandomStart, &p.rng)
	default:
		cs.strategy = rpf.NewLocalNeighborhood(n, p.cfg.RandomStart, &p.rng)
	}
}

// newBackoff builds the per-encounter PEBA state.
func (p *Peer) newBackoff() *peba.Backoff {
	return peba.New(peba.Config{}, &p.rng)
}
