package nfd

import (
	"time"

	"dapes/internal/ndn"
	"dapes/internal/sim"
)

// PitEntry records a forwarded Interest awaiting Data until its lifetime
// passes.
type PitEntry struct {
	Name   ndn.Name
	node   *nameTreeNode
	expiry *sim.Timer
}

// Pit is the Pending Interest Table: exact-name entries stored on the
// shared name tree, with clock-driven lifetimes.
type Pit struct {
	clock Clock
	tree  *NameTree
	len   int
}

// newPitOn mounts the PIT on an existing (possibly shared) tree.
func newPitOn(tree *NameTree, clock Clock) *Pit {
	return &Pit{clock: clock, tree: tree}
}

// Find returns the entry for an exact name, or nil. Allocation-free.
func (p *Pit) Find(name ndn.Name) *PitEntry {
	if n := p.tree.find(name); n != nil {
		return n.pit
	}
	return nil
}

// Insert adds (or refreshes) the entry for interest, returning the entry and
// whether it already existed (i.e. the Interest was aggregated). The entry
// expires after lifetime; a re-Insert restarts it. The face the Interest
// arrived on is not recorded: the tables keep no downstreams.
func (p *Pit) Insert(interest *ndn.Interest, _ *Face, lifetime time.Duration) (entry *PitEntry, aggregated bool) {
	node := p.tree.fill(interest.Name)
	e := node.pit
	existed := e != nil
	if !existed {
		e = &PitEntry{Name: interest.Name.Clone(), node: node}
		e.expiry = p.clock.NewTimer(func() { p.remove(e) })
		node.pit = e
		p.len++
	}
	e.expiry.Reset(lifetime)
	return e, existed
}

// remove detaches e when its lifetime timer fires. Only expiry removes an
// entry, and a re-Insert resets the timer, so e is still on its node.
func (p *Pit) remove(e *PitEntry) {
	e.node.pit = nil
	p.tree.prune(e.node)
	p.len--
}
