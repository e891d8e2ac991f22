package nfd

// Config parameterizes a Forwarder.
type Config struct {
	// CsCapacity is the Content Store size in packets. Default 4096.
	CsCapacity int
}

// Forwarder holds one node's three NDN tables. Its Content Store, PIT, and
// FIB all index into one shared name tree, so a name's CS entry, PIT entry
// and FIB next hops live on the same node.
type Forwarder struct {
	faces int
	tree  *NameTree
	cs    *ContentStore
	pit   *Pit
	fib   *Fib
}

// NewForwarder creates the tables, with the CS and PIT driven by clock.
func NewForwarder(clock Clock, cfg Config) *Forwarder {
	if cfg.CsCapacity == 0 {
		cfg.CsCapacity = 4096
	}
	tree := NewNameTree()
	return &Forwarder{
		tree: tree,
		cs:   newContentStoreOn(tree, cfg.CsCapacity, clock),
		pit:  newPitOn(tree, clock),
		fib:  newFibOn(tree),
	}
}

// AddFace returns a new face with the next forwarder-unique ID, for FIB next
// hops. Its arguments are unused: the tables store faces but never send on
// them.
func (fw *Forwarder) AddFace(bool, func(wire []byte)) *Face {
	f := &Face{id: fw.faces}
	fw.faces++
	return f
}

// Fib exposes the forwarding table for route registration.
func (fw *Forwarder) Fib() *Fib { return fw.fib }

// Cs exposes the content store.
func (fw *Forwarder) Cs() *ContentStore { return fw.cs }

// Pit exposes the pending-interest table.
func (fw *Forwarder) Pit() *Pit { return fw.pit }
