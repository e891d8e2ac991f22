package core

import (
	"dapes/internal/bitmap"
	"dapes/internal/sim"
)

// This file is the crash/restart lifecycle the fault engine
// (internal/fault) drives: Crash models a node losing power mid-run,
// Restart a cold reboot that keeps only what would survive on disk. Both
// are ordinary kernel events — everything they do is a pure function of
// the virtual time they fire at, so a fault schedule replays identically
// across reruns.

// Kernel returns the event kernel driving this peer. Fault schedules
// install crash and restart events through it.
func (p *Peer) Kernel() *sim.Kernel { return p.k }

// Crash hard-stops the peer mid-run: every timer is cancelled (Stop),
// already-queued one-shot sends become no-ops, and the radio goes deaf so
// receptions in flight are dropped at the medium. State is left in place;
// Restart decides what survives the outage.
func (p *Peer) Crash() {
	p.Stop()
	p.radio.SetEnabled(false)
}

// Restart cold-boots a crashed peer: neighbor, PIT, and dedup tables are
// wiped, downloads in progress (and completed downloads — the content
// store is volatile) are forgotten, and discovery starts over. Two things
// survive, modeling durable storage and application intent: locally
// published collections keep their packets (their advertisement state
// still restarts cold), and subscription prefixes stay registered, so the
// peer re-discovers and re-fetches what it still wants.
func (p *Peer) Restart() {
	if p.running {
		return
	}
	p.neighbors = make(map[int]*neighbor)
	p.relay.Reset()
	p.recentActivity = false
	p.lastReplyAt = 0
	p.beaconPeriod = beaconPeriodMin
	for key, cs := range p.collections {
		if cs.done && !cs.subscribed {
			// Locally published collection: packets persist, the
			// per-encounter advertisement state does not.
			cs.avail = make(map[int]*bitmap.Bitmap)
			cs.unionStale = true
			cs.session = advertSession{}
			continue
		}
		delete(p.collections, key)
	}
	p.radio.SetEnabled(true)
	p.Start()
}
