package core

import (
	"strconv"
	"time"

	"dapes/internal/metadata"
	"dapes/internal/multihop"
	"dapes/internal/ndn"
	"dapes/internal/sim"
)

// This file implements data fetching (Section IV-E): rarest-piece-first
// Interest scheduling, response suppression, verification against the
// metadata, and completion tracking.

// inflightTimer is one in-flight data Interest's reselection timeout,
// pooled per peer: most Interests are answered (or
// overheard) before the timeout, so the cancel path dominates.
type inflightTimer struct {
	p    *Peer
	t    *sim.Timer
	cs   *collectionState
	idx  int
	next *inflightTimer // in the free list
}

func (it *inflightTimer) fire() {
	p, cs := it.p, it.cs
	p.releaseInflight(it)
	p.stats.InterestTimeouts++
	p.fetchLoop(cs)
}

// releaseInflight takes an Interest out of flight — its packet arrived, its
// timeout fired, or the fetch was abandoned — and recycles its record.
func (p *Peer) releaseInflight(it *inflightTimer) {
	it.t.Stop()
	delete(it.cs.inflight, it.idx)
	it.cs.release(it.idx)
	it.cs = nil
	it.next, p.inflightFree = p.inflightFree, it
}

// releaseAllInflight abandons every in-flight Interest of cs (completion,
// Stop).
func (p *Peer) releaseAllInflight(cs *collectionState) {
	// Map order only decides pool order, and pooled records are reset before reuse.
	for _, it := range cs.inflight {
		p.releaseInflight(it)
	}
}

// maybeStartFetch begins (or resumes) the download pipeline according to the
// advertisement exchange mode (Section IV-D / Figs. 9c-9d).
func (p *Peer) maybeStartFetch(cs *collectionState) {
	if !cs.subscribed || cs.done || cs.manifest == nil || cs.fetching {
		return
	}
	s := &cs.session
	switch p.cfg.AdvertMode {
	case BitmapsFirst:
		b := p.cfg.BitmapsBefore
		if b > 0 {
			if s.heardCount < b && !p.allNeighborsHeard(cs) {
				return
			}
		} else {
			// "All bitmaps": wait for session quiescence.
			if !p.allNeighborsHeard(cs) {
				quietFor := p.k.Now() - s.lastActivity
				if quietFor < sessionQuiet {
					p.k.ScheduleFunc(sessionQuiet-quietFor, func() { p.maybeStartFetch(cs) })
					return
				}
			}
			if s.heardCount == 0 && len(cs.avail) == 0 {
				return
			}
		}
	default: // Interleaved: fetch as soon as anything is known.
		if s.heardCount == 0 && len(cs.avail) == 0 {
			return
		}
	}
	cs.fetching = true
	p.k.ScheduleFunc(p.rng.Jitter(multihop.TransmissionWindow), func() { p.fetchLoop(cs) })
}

// allNeighborsHeard reports whether every live neighbor has advertised a
// bitmap for the collection.
func (p *Peer) allNeighborsHeard(cs *collectionState) bool {
	if len(p.neighbors) == 0 {
		return false
	}
	for id := range p.neighbors {
		if _, ok := cs.avail[id]; !ok {
			return false
		}
	}
	return true
}

// fetchLoop keeps the Interest pipeline full.
func (p *Peer) fetchLoop(cs *collectionState) {
	if !p.running || cs.done || cs.manifest == nil {
		cs.fetching = false
		return
	}
	issued := false
	for len(cs.inflight) < pipeline {
		idx := p.selectNext(cs)
		if idx < 0 {
			break
		}
		p.sendDataInterest(cs, idx)
		issued = true
	}
	if !issued && len(cs.inflight) == 0 {
		// Stalled: nothing eligible right now. Back off and re-advertise so
		// fresh bitmaps can unblock us at the next encounter.
		cs.fetching = false
		p.k.ScheduleFunc(beaconPeriodMin, func() {
			if cs.done || cs.fetching || !p.running {
				return
			}
			if len(p.neighbors) > 0 {
				p.readvertise(cs)
			}
			p.maybeStartFetch(cs)
		})
	}
}

// selectNext applies the RPF strategy, passing over in-flight and buffered
// (unverified) packets. With multi-hop enabled, packets nobody in range
// advertises remain eligible — an intermediate may retrieve them
// (Section V).
func (p *Peer) selectNext(cs *collectionState) int {
	idx := cs.strategy.NextRequest(cs.own, cs.availabilityUnion(), cs.busy)
	if idx < 0 && p.cfg.Multihop {
		idx = cs.strategy.NextRequest(cs.own, cs.all, cs.busy)
	}
	return idx
}

// sendDataInterest broadcasts an Interest for one collection packet after
// the random transmission timer, arming a timeout for reselection.
func (p *Peer) sendDataInterest(cs *collectionState, idx int) {
	if _, _, err := cs.manifest.Locate(idx); err != nil {
		return
	}
	nonce := p.relay.NewNonce()
	delay := p.rng.Jitter(multihop.TransmissionWindow)
	p.queueInterest(delay, cs, false, idx, nonce)
	it := p.inflightFree
	if it != nil {
		p.inflightFree = it.next
	} else {
		it = &inflightTimer{p: p}
		it.t = p.k.NewTimer(it.fire)
	}
	it.cs, it.idx = cs, idx
	cs.inflight[idx] = it
	cs.busy.Set(idx)
	it.t.Reset(delay + interestTimeout)
}

// queuedInterest is a data Interest for packet n of cs, or with meta a
// metadata Interest for segment n of cs, waiting out its transmission slot.
// When the slot comes it goes on the air only if the peer runs and it is
// still wanted: the packet not yet held, the metadata not yet assembled. The
// record holds what the Interest is made of — its nonce was drawn when it
// was queued — and it is encoded, into a wire from the medium's pool, only
// once it passes, so an Interest that is dropped never takes a wire. Records
// are pooled on the peer with their event func built once, and a record
// returns to the pool only when its own event fires — a record whose send is
// still queued is never reused, so no event can send with another Interest's
// (cs, n).
type queuedInterest struct {
	p     *Peer
	cs    *collectionState
	meta  bool
	n     int
	nonce uint32
	fire  func()
	next  *queuedInterest // in the free list
}

// queueInterest puts the Interest for (cs, meta, n) with nonce on the air
// after delay, unless it is no longer wanted by then (queuedInterest).
func (p *Peer) queueInterest(delay time.Duration, cs *collectionState, meta bool, n int, nonce uint32) {
	q := p.queuedFree
	if q != nil {
		p.queuedFree = q.next
	} else {
		q = &queuedInterest{p: p}
		q.fire = q.send
	}
	q.cs, q.meta, q.n, q.nonce = cs, meta, n, nonce
	p.k.ScheduleFunc(delay, q.fire)
}

func (q *queuedInterest) send() {
	p, cs, meta, n, nonce := q.p, q.cs, q.meta, q.n, q.nonce
	q.cs = nil
	q.next, p.queuedFree = p.queuedFree, q
	switch {
	case !p.running:
		return
	case meta:
		if cs.manifest != nil {
			return
		}
		p.stats.MetaInterestsSent++
		p.name = append(append(p.name[:0], cs.metaName...), ndn.Component(strconv.Itoa(n)))
	default:
		if cs.own.Test(n) {
			return
		}
		p.stats.DataInterestsSent++
		p.name, _ = cs.manifest.AppendPacketName(p.name[:0], n) // cannot fail: sendDataInterest located n
	}
	p.medium.BroadcastOwned(p.radio, p.interestWire(&ndn.Interest{Name: p.name, Nonce: nonce}))
}

// interestWire encodes in into a wire from the medium's pool, for
// BroadcastOwned or BroadcastOwnedAfter: every Interest a peer sends goes on
// the air in one (phy.Frame).
func (p *Peer) interestWire(in *ndn.Interest) []byte {
	return in.AppendEncode(p.medium.Wire(in.EncodedLen()))
}

// handleContentInterest serves collection data and metadata this peer holds;
// otherwise it defers to the multi-hop forwarding logic (Section V).
func (p *Peer) handleContentInterest(from int, in *ndn.Interest) {
	for _, cs := range p.collections {
		// Metadata segment request.
		if cs.metaName != nil && cs.metaName.IsPrefixOf(in.Name) && in.Name.Len() == cs.metaName.Len()+1 {
			if seq, err := in.Name.Seq(); err == nil {
				if seg, ok := cs.metaSegs[seq]; ok && cs.manifest != nil {
					p.relay.ScheduleReply(seg, &p.stats.MetaDataSent)
					return
				}
			}
		}
		// Collection packet request.
		if cs.manifest != nil {
			if idx := cs.manifest.GlobalIndexOfName(in.Name); idx >= 0 && cs.own.Test(idx) {
				if pkt, ok := cs.packets[idx]; ok {
					p.relay.ScheduleReply(pkt, &p.stats.DataSent)
					return
				}
			}
		}
	}
	if p.cfg.Multihop {
		p.considerForwarding(from, in)
	}
}

// handleContentData processes collection data and metadata heard on air —
// whether solicited by this peer or overheard (every broadcast transmission
// is useful to every peer missing that packet).
func (p *Peer) handleContentData(d *ndn.Data) {
	for _, cs := range p.collections {
		// Metadata segment.
		if cs.metaName != nil && cs.metaName.IsPrefixOf(d.Name) && d.Name.Len() == cs.metaName.Len()+1 {
			if seq, err := d.Name.Seq(); err == nil {
				p.storeMetaSegment(cs, seq, d)
			}
			return
		}
		// Collection packet.
		if cs.manifest == nil {
			continue
		}
		idx := cs.manifest.GlobalIndexOfName(d.Name)
		if idx < 0 {
			continue
		}
		if cs.own.Test(idx) {
			return
		}
		if _, solicited := cs.inflight[idx]; solicited {
			p.stats.PacketsReceived++
		} else {
			p.stats.PacketsOverheard++
		}
		p.storePacket(cs, idx, d)
		return
	}
}

// storePacket verifies and stores a collection packet, advancing the fetch
// pipeline and completion state.
func (p *Peer) storePacket(cs *collectionState, idx int, d *ndn.Data) {
	file, pkt, err := cs.manifest.Locate(idx)
	if err != nil {
		return
	}
	switch cs.manifest.Format {
	case metadata.FormatMerkle:
		// Whole-file verification (Section IV-C): buffer until complete.
		if cs.unverified[file] == nil {
			cs.unverified[file] = make(map[int]*ndn.Data)
		}
		cs.unverified[file][pkt] = d
		cs.busy.Set(idx)
		if len(cs.unverified[file]) == cs.manifest.Files[file].PacketCount {
			ordered := make([]*ndn.Data, cs.manifest.Files[file].PacketCount)
			for i := range ordered {
				ordered[i] = cs.unverified[file][i]
			}
			if cs.manifest.VerifyFile(file, ordered) {
				for i, pd := range ordered {
					g := cs.manifest.GlobalIndex(file, i)
					cs.packets[g] = pd
					cs.own.Set(g)
				}
			} else {
				p.stats.VerifyFailures++
			}
			delete(cs.unverified, file)
			for i := range ordered {
				cs.release(cs.manifest.GlobalIndex(file, i))
			}
		}
	default: // FormatPacketDigest: immediate verification.
		if !cs.manifest.VerifyPacket(idx, d) {
			p.stats.VerifyFailures++
			return
		}
		cs.packets[idx] = d
		cs.own.Set(idx)
	}

	if it, ok := cs.inflight[idx]; ok {
		p.releaseInflight(it)
	}
	if cs.subscribed && !cs.done && cs.complete() {
		cs.done = true
		cs.doneAt = p.k.Now()
		cs.fetching = false
		p.releaseAllInflight(cs)
		if p.onComplete != nil {
			p.onComplete(cs.collection, cs.doneAt)
		}
		return
	}
	if cs.fetching {
		p.fetchLoop(cs)
	} else {
		p.maybeStartFetch(cs)
	}
}
