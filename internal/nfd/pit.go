package nfd

import (
	"time"

	"dapes/internal/ndn"
)

// PitEntry records a forwarded Interest awaiting Data. Downstream faces are
// where matching Data must be sent.
type PitEntry struct {
	Name       ndn.Name
	node       *nameTreeNode
	downstream []*Face // sorted ascending by face ID
	expiry     Timer
	expired    bool
}

// Downstreams returns the faces waiting for this Interest's Data, sorted by
// face ID, so the order is stable across calls and across process runs.
func (e *PitEntry) Downstreams() []*Face {
	out := make([]*Face, len(e.downstream))
	copy(out, e.downstream)
	return out
}

// addDownstream inserts the face in ID order; duplicates are ignored.
func (e *PitEntry) addDownstream(f *Face) {
	i := faceSearch(e.downstream, f.id)
	if i < len(e.downstream) && e.downstream[i].id == f.id {
		return
	}
	e.downstream = append(e.downstream, nil)
	copy(e.downstream[i+1:], e.downstream[i:])
	e.downstream[i] = f
}

// Pit is the Pending Interest Table: exact-name entries stored on the
// shared name tree, with clock-driven lifetimes.
type Pit struct {
	clock Clock
	tree  *NameTree
	len   int
}

// NewPit returns an empty PIT driven by the given clock.
func NewPit(clock Clock) *Pit {
	return newPitOn(NewNameTree(), clock)
}

// newPitOn mounts the PIT on an existing (possibly shared) tree.
func newPitOn(tree *NameTree, clock Clock) *Pit {
	return &Pit{clock: clock, tree: tree}
}

// Len returns the number of pending entries.
func (p *Pit) Len() int { return p.len }

// Find returns the entry for an exact name, or nil. Allocation-free.
func (p *Pit) Find(name ndn.Name) *PitEntry {
	if n := p.tree.find(name); n != nil {
		return n.pit
	}
	return nil
}

// Insert adds (or extends) the entry for interest arriving on face, returning
// the entry and whether it already existed (i.e. the Interest was
// aggregated). The entry expires after lifetime; a re-Insert restarts it.
func (p *Pit) Insert(interest *ndn.Interest, face *Face, lifetime time.Duration) (entry *PitEntry, aggregated bool) {
	node := p.tree.fill(interest.Name)
	e := node.pit
	existed := e != nil
	if !existed {
		e = &PitEntry{Name: interest.Name.Clone(), node: node}
		node.pit = e
		p.len++
	}
	if face != nil {
		e.addDownstream(face)
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

// Satisfy removes the entry matched by the Data packet and returns it, or nil
// if no Interest is pending for that exact name.
func (p *Pit) Satisfy(data *ndn.Data) *PitEntry {
	node := p.tree.find(data.Name)
	if node == nil || node.pit == nil {
		return nil
	}
	e := node.pit
	if e.expiry != nil {
		e.expiry.Cancel()
	}
	e.expired = true
	p.remove(e)
	return e
}

func (p *Pit) remove(e *PitEntry) {
	if e.node.pit != e {
		return
	}
	e.node.pit = nil
	p.tree.prune(e.node)
	p.len--
}
