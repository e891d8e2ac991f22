package core

import (
	"dapes/internal/ndn"
)

// This file implements the Section-V multi-hop behaviour of DAPES-aware
// intermediate peers: Interests that cannot be served locally are forwarded
// when the peer speculates the requested data is reachable, and suppressed
// otherwise. Matching Data heard later is re-broadcast along the reverse
// direction, and unanswered forwards arm suppression timers.

// considerForwarding decides the fate of an Interest this peer cannot serve.
func (p *Peer) considerForwarding(from int, in *ndn.Interest) {
	key := in.NameKey()
	if until, ok := p.suppressed[key]; ok && p.k.Now() < until {
		p.stats.InterestsSuppressed++
		return
	}

	forward, informed := p.speculateAvailability(from, in.Name)
	if !informed {
		// No knowledge about the requested data: behave like a pure
		// forwarder and forward probabilistically (Section V-B).
		forward = p.k.RNG().Float64() < p.cfg.ForwardProb
	}
	if !forward {
		p.stats.InterestsSuppressed++
		return
	}
	p.forwardInterest(in)
}

// speculateAvailability consults the peer's short-lived knowledge of the
// data available around it: advertised (or overheard) bitmaps and known
// metadata offers. informed is false when the peer has no relevant
// knowledge at all.
func (p *Peer) speculateAvailability(from int, name ndn.Name) (forward, informed bool) {
	for _, cs := range p.collections {
		// Metadata Interests: forward if some neighbor offers the
		// collection's metadata.
		if cs.metaName != nil && cs.metaName.IsPrefixOf(name) {
			for id, n := range p.neighbors {
				if id == from {
					continue
				}
				if _, ok := n.offers[cs.uri]; ok {
					return true, true
				}
			}
			return false, true
		}
		// Collection data Interests: forward only when some advertised
		// bitmap (other than the requesting side's) shows the packet.
		if cs.collection.IsPrefixOf(name) {
			idx := -1
			if cs.manifest != nil {
				idx = cs.manifest.GlobalIndexOfName(name)
			}
			if idx < 0 {
				// Overheard-only collection (no manifest): fall back to the
				// sequence number if the name shape matches.
				if len(cs.avail) == 0 {
					return false, false
				}
				seq, err := name.Seq()
				if err != nil {
					return false, false
				}
				idx = seq
			}
			if len(cs.avail) == 0 {
				return false, false
			}
			for owner, bm := range cs.avail {
				if owner == from {
					continue
				}
				if bm.Test(idx) {
					return true, true
				}
			}
			return false, true
		}
	}
	return false, false
}

// forwardInterest re-broadcasts the Interest after a random delay and arms
// the suppression timer: if no Data answers within SuppressTTL, future
// Interests for the same name are suppressed until the timer expires.
func (p *Peer) forwardInterest(in *ndn.Interest) {
	key := in.NameKey()
	if rec, ok := p.forwarded[key]; ok && !rec.answered && p.k.Now()-rec.at < p.cfg.SuppressTTL {
		return // already forwarded, still awaiting data
	}
	rec := &forwardRecord{at: p.k.Now()}
	p.forwarded[key] = rec
	// Encode-once: a received Interest relays its original frame bytes.
	wire := in.Encode()
	p.k.ScheduleFunc(p.k.Jitter(p.cfg.TransmissionWindow), func() {
		if !p.running {
			return
		}
		p.stats.InterestsForwarded++
		p.medium.Broadcast(p.radio, wire)
	})
	p.k.ScheduleFunc(p.cfg.SuppressTTL, func() {
		if !rec.answered {
			p.suppressed[key] = p.k.Now() + p.cfg.SuppressTTL
		}
	})
}

// maybeForwardData re-broadcasts Data matching a previously forwarded
// Interest, completing the multi-hop path back toward the requester.
func (p *Peer) maybeForwardData(d *ndn.Data) {
	if !p.cfg.Multihop {
		return
	}
	key := d.NameKey()
	rec, ok := p.forwarded[key]
	if !ok || rec.answered {
		return
	}
	rec.answered = true
	p.stats.ForwardedAnswered++
	delete(p.suppressed, key)
	// Encode-once: relay the Data frame exactly as it was received.
	wire := d.Encode()
	p.k.ScheduleFunc(p.k.Jitter(p.cfg.TransmissionWindow), func() {
		if !p.running {
			return
		}
		p.stats.DataForwarded++
		p.medium.Broadcast(p.radio, wire)
	})
}
