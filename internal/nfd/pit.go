package nfd

import (
	"time"

	"dapes/internal/ndn"
)

// PitEntry records a forwarded Interest awaiting Data until its lifetime
// passes.
type PitEntry struct {
	Name    ndn.Name
	node    *nameTreeNode
	expiry  Timer
	expired bool
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
		node.pit = e
		p.len++
	}
	if e.expiry != nil {
		e.expiry.Cancel()
	}
	e.expiry = p.clock.Schedule(lifetime, func() {
		if !e.expired {
			e.expired = true
			p.remove(e)
		}
	})
	return e, existed
}

func (p *Pit) remove(e *PitEntry) {
	if e.node.pit != e {
		return
	}
	e.node.pit = nil
	p.tree.prune(e.node)
	p.len--
}
