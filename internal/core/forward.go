package core

import (
	"dapes/internal/ndn"
)

// This file is what a DAPES-aware intermediate peer adds to Section V's
// forwarding (multihop.Relay): Interests that cannot be served locally are
// forwarded when the peer speculates the requested data is reachable, and
// suppressed otherwise. Relaying the Data back and the suppression timers
// are the Relay's.

// considerForwarding decides the fate of an Interest this peer cannot serve.
func (p *Peer) considerForwarding(from int, in *ndn.Interest) {
	suppressed, inFlight := p.relay.Check(in)
	if suppressed {
		return
	}

	forward, informed := p.speculateAvailability(from, in.Name)
	if !informed {
		// No knowledge about the requested data: behave like a pure
		// forwarder and forward probabilistically (Section V-B).
		forward = p.rng.Float64() < p.cfg.ForwardProb
	}
	if !forward {
		p.stats.InterestsSuppressed++
		return
	}
	if !inFlight {
		p.relay.Forward(in)
	}
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
				if n.offers.has(cs.uri) {
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
