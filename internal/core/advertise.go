package core

import (
	"dapes/internal/bitmap"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
)

// This file implements the data-advertisement exchange of Sections IV-D and
// IV-F: bitmap Interests solicit advertisements, and bitmap Data
// transmissions are prioritized (most-useful-first) with PEBA collision
// mitigation.

// touchSession ensures the per-encounter session state is live, resetting it
// if the previous encounter expired.
func (p *Peer) touchSession(cs *collectionState) *advertSession {
	s := &cs.session
	now := p.k.Now()
	if s.active && now-s.lastActivity > sessionTTL {
		// Previous encounter ended: priority groups and heard-bitmap unions
		// are per encounter (Section IV-F).
		if cs.txT != nil {
			cs.txT.Stop()
		}
		*s = advertSession{}
	}
	if !s.active {
		s.active = true
		s.heardUnion = bitmap.New(cs.manifest.TotalPackets())
		s.backoff = p.newBackoff()
		s.lastActivity = now
	}
	return s
}

// sendBitmapInterest broadcasts a bitmap Interest for the collection,
// carrying this peer's own bitmap as the paper specifies (Section IV-D).
func (p *Peer) sendBitmapInterest(cs *collectionState) {
	if cs.manifest == nil {
		return
	}
	p.touchSession(cs)
	p.buf = appendBitmapPayload(p.buf[:0], cs.uri, p.id, cs.own)
	in := ndn.Interest{
		Name:        cs.bitmapName,
		CanBePrefix: true,
		Nonce:       p.relay.NewNonce(),
		AppParams:   p.buf,
	}
	p.medium.BroadcastOwnedAfter(p.rng.Jitter(multihop.TransmissionWindow), p.radio, p.interestWire(&in), &p.stats.BitmapInterestsSent, &p.running)
}

// handleBitmapInterest processes a received bitmap Interest: the carried
// bitmap is an advertisement from the requester, and the request solicits
// this peer's own (prioritized) bitmap transmission.
func (p *Peer) handleBitmapInterest(in *ndn.Interest) {
	payload, err := decodeBitmapPayload(in.AppParams)
	if err != nil {
		return
	}
	p.neighborHeard(payload.Owner)
	cs, ok := p.collections[string(payload.CollectionURI)]
	if !ok || cs.manifest == nil {
		// We can still use the overheard bitmap for forwarding decisions
		// about collections we do not hold (Section V-B).
		p.recordOverheardBitmap(payload)
		return
	}
	p.observeAdvertisement(cs, payload, false)
	s := p.touchSession(cs)
	if !s.transmitted && !cs.txPending() {
		p.scheduleBitmapTx(cs)
	}
}

// txPending reports whether an advertisement transmission is armed.
func (cs *collectionState) txPending() bool {
	return cs.txT != nil && cs.txT.Pending()
}

// handleBitmapData processes an advertisement transmission heard on air.
func (p *Peer) handleBitmapData(d *ndn.Data) {
	payload, err := decodeBitmapPayload(d.Content)
	if err != nil {
		return
	}
	p.neighborHeard(payload.Owner)
	cs, ok := p.collections[string(payload.CollectionURI)]
	if !ok || cs.manifest == nil {
		p.recordOverheardBitmap(payload)
		return
	}
	heard := p.observeAdvertisement(cs, payload, true)

	s := p.touchSession(cs)
	s.heardCount++
	if heard != nil {
		_ = s.heardUnion.Or(heard) // both have the manifest's length
	}
	s.lastActivity = p.k.Now()

	// Paper's Fig.-5 example: hearing a bitmap cancels the current pending
	// transmission and reschedules with the updated missing set.
	if cs.txPending() {
		cs.txT.Stop()
		p.scheduleBitmapTx(cs)
	}
	p.maybeStartFetch(cs)
}

// recordOverheardBitmap stores advertisements for collections this peer does
// not itself hold, enabling informed forwarding decisions (Section V-B:
// "intermediate peers interested in a different file collection").
func (p *Peer) recordOverheardBitmap(payload bitmapPayload) {
	if !p.cfg.Multihop {
		return
	}
	cs, ok := p.collections[string(payload.CollectionURI)]
	if !ok {
		cs = newCollectionState(ndn.ParseName(string(payload.CollectionURI)))
		p.collections[cs.uri] = cs
	}
	cs.hear(payload)
}

// hear takes an advertised bitmap into cs.avail and returns it: decoded in
// place into the bitmap already held for its owner when the lengths match,
// into a new one for a new neighbour or a changed length. Every receiver of
// the advertisement decodes its own copy, so this is where a re-advertisement
// costs nothing.
func (cs *collectionState) hear(payload bitmapPayload) *bitmap.Bitmap {
	bm := cs.avail[payload.Owner]
	if bm == nil || bm.DecodeFrom(payload.Bitmap) != nil {
		bm, _ = bitmap.Decode(payload.Bitmap) // cannot fail: decodeBitmapPayload checked the header
		cs.avail[payload.Owner] = bm
	}
	cs.unionStale = true
	return bm
}

// observeAdvertisement folds a peer's bitmap into availability and strategy
// state, returning it as decoded (nil when it is not of this collection's
// length and was ignored).
func (p *Peer) observeAdvertisement(cs *collectionState, payload bitmapPayload, viaData bool) *bitmap.Bitmap {
	if cs.manifest == nil || payload.Bits != cs.manifest.TotalPackets() {
		return nil
	}
	bm := cs.hear(payload)
	if cs.strategy != nil {
		cs.strategy.Observe(payload.Owner, bm)
	}
	if !viaData {
		p.maybeStartFetch(cs)
	}
	return bm
}

// priorityFraction computes the PEBA priority input: for the first bitmap of
// an encounter, the peer's share of all packets; afterwards, its share of
// the packets still missing from every previously transmitted bitmap.
func (p *Peer) priorityFraction(cs *collectionState) float64 {
	total := cs.manifest.TotalPackets()
	if total == 0 {
		return 0
	}
	s := &cs.session
	if s.heardCount == 0 {
		return float64(cs.own.Count()) / float64(total)
	}
	missing := total - s.heardUnion.Count()
	if missing <= 0 {
		return 0
	}
	mine, err := cs.own.MissingFrom(s.heardUnion)
	if err != nil {
		return 0
	}
	return float64(mine) / float64(missing)
}

// scheduleBitmapTx arms this peer's advertisement transmission using the
// prioritized delay (PEBA or the linear ablation). The timer is created
// once per collection: the exchange cancels and re-arms it on nearly every
// bitmap heard, which must not allocate.
func (p *Peer) scheduleBitmapTx(cs *collectionState) {
	s := &cs.session
	if s.transmitted || cs.txPending() {
		return
	}
	frac := p.priorityFraction(cs)
	delay := s.backoff.Delay(frac)
	if cs.txT == nil {
		cs.txT = p.k.NewTimer(func() { p.transmitBitmap(cs) })
	}
	cs.txT.Reset(delay)
}

// transmitBitmap broadcasts this peer's bitmap with collision feedback; on
// collision, PEBA doubles the slot count and the transmission is
// rescheduled (the linear ablation retries with the same prioritized delay).
func (p *Peer) transmitBitmap(cs *collectionState) {
	if !p.running || cs.manifest == nil {
		return
	}
	s := &cs.session
	if s.transmitted {
		return
	}
	s.txSeq++
	p.name = appendBitmapDataName(p.name[:0], cs.bitmapName, p.id, s.txSeq)
	p.buf = appendBitmapPayload(p.buf[:0], cs.uri, p.id, cs.own)
	d := ndn.Data{Name: p.name, Content: p.buf}
	d.SignDigest()
	p.stats.BitmapDataSent++
	p.medium.BroadcastNotify(p.radio, d.Encode(), func(collided bool) {
		if !collided {
			s.transmitted = true
			s.lastActivity = p.k.Now()
			return
		}
		p.stats.BitmapCollisions++
		if p.cfg.UsePEBA {
			s.backoff.OnCollision()
		}
		if !cs.txPending() && !s.transmitted {
			p.scheduleBitmapTx(cs)
		}
	})
}

// readvertise restarts the advertisement exchange, used when a subscribed
// collection has stalled with missing packets but live neighbors.
func (p *Peer) readvertise(cs *collectionState) {
	s := &cs.session
	if s.active {
		s.transmitted = false
	}
	p.sendBitmapInterest(cs)
}
