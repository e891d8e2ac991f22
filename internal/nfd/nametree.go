package nfd

import (
	"time"

	"dapes/internal/ndn"
)

// NameTree is the component-wise name-prefix tree shared by the Content
// Store, PIT, and FIB (the NFD/YaNFD "name tree" design). Each node is one
// name component; a node's children are kept sorted by component, so every
// traversal — exact descent, longest-prefix match, or subtree walk — is
// deterministic by construction, with no map iteration anywhere.
//
// A node carries at most one payload per table. Lookups descend component
// by component over the ndn.Name slice directly, so the hot path performs
// zero per-lookup string allocation (the old tables built one URI string
// per lookup, and one per prefix length for FIB LPM).
//
// Nodes are carved from slabs the tree allocates a chunk at a time, and a
// pruned node goes to a free list for the next fill, so a node costs no
// object of its own.
type NameTree struct {
	root nameTreeNode
	slab []nameTreeNode // the latest chunk's nodes not yet handed out
	cut  int            // nodes carved from slabs so far
	free *nameTreeNode  // pruned nodes, linked through next
}

// slabFirst and slabMax bound a slab chunk: each is as large as all the
// chunks before it, so a small store stays small.
const (
	slabFirst = 8
	slabMax   = 64
)

// nameTreeNode is one component of the tree. The zero value is a valid
// (empty) root representing the name "/".
type nameTreeNode struct {
	component ndn.Component
	depth     int
	parent    *nameTreeNode
	children  []*nameTreeNode // sorted ascending by component, binary-searched by every lookup

	// The node's Content Store entry, present when data is non-nil (see
	// ContentStore): the packet, when it stops being fresh, and its
	// neighbours in the store's recency ring. A node on the free list
	// links through next.
	data       *ndn.Data
	staleAt    time.Duration
	prev, next *nameTreeNode

	pit *PitEntry
	fib []*Face // next hops, sorted ascending by face ID
}

// NewNameTree returns an empty tree.
func NewNameTree() *NameTree {
	return &NameTree{}
}

// childIndex returns the position of c in n.children, or the insertion
// point if absent. Hand-rolled binary search keeps the lookup path free of
// closure allocations.
func (n *nameTreeNode) childIndex(c ndn.Component) int {
	lo, hi := 0, len(n.children)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.children[mid].component < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// child returns the child holding component c, or nil.
func (n *nameTreeNode) child(c ndn.Component) *nameTreeNode {
	i := n.childIndex(c)
	if i < len(n.children) && n.children[i].component == c {
		return n.children[i]
	}
	return nil
}

// find descends to the node for name, or returns nil if any component is
// missing. Allocation-free.
func (t *NameTree) find(name ndn.Name) *nameTreeNode {
	n := &t.root
	for _, c := range name {
		if n = n.child(c); n == nil {
			return nil
		}
	}
	return n
}

// fill descends to the node for name, creating missing nodes along the way.
func (t *NameTree) fill(name ndn.Name) *nameTreeNode {
	n := &t.root
	for _, c := range name {
		i := n.childIndex(c)
		if i < len(n.children) && n.children[i].component == c {
			n = n.children[i]
			continue
		}
		child := t.node()
		child.component, child.depth, child.parent = c, n.depth+1, n
		if n.children == nil {
			n.children = make([]*nameTreeNode, 0, 4)
		}
		n.children = append(n.children, nil)
		copy(n.children[i+1:], n.children[i:])
		n.children[i] = child
		n = child
	}
	return n
}

// node returns a blank node: a pruned one, else the slab's next.
func (t *NameTree) node() *nameTreeNode {
	if n := t.free; n != nil {
		t.free, n.next = n.next, nil
		return n
	}
	if len(t.slab) == 0 {
		t.slab = make([]nameTreeNode, min(max(slabFirst, t.cut/4), slabMax))
		t.cut += len(t.slab)
	}
	n := &t.slab[0]
	t.slab = t.slab[1:]
	return n
}

// empty reports whether the node carries no payload and no children.
func (n *nameTreeNode) empty() bool {
	return n.data == nil && n.pit == nil && len(n.fib) == 0 && len(n.children) == 0
}

// prune removes n and any newly-empty ancestors from the tree. A node is
// kept as long as any table still stores a payload on it or any descendant
// survives, so the three tables can share nodes without freeing each
// other's state.
func (t *NameTree) prune(n *nameTreeNode) {
	for n != nil && n.parent != nil && n.empty() {
		p := n.parent
		i := p.childIndex(n.component)
		if i < len(p.children) && p.children[i] == n {
			copy(p.children[i:], p.children[i+1:])
			p.children[len(p.children)-1] = nil
			p.children = p.children[:len(p.children)-1]
		}
		// Blank the node for reuse, keeping its children's backing array.
		*n = nameTreeNode{children: n.children[:0], next: t.free}
		t.free = n
		n = p
	}
}

// name reconstructs the full name of a node (used on slow paths only).
//
//lint:ignore unreferenced test support: checkTreeInvariants and TestNameTreeFillFindPrune name nodes with it
func (n *nameTreeNode) name() ndn.Name {
	out := make(ndn.Name, n.depth)
	for i, cur := n.depth-1, n; cur.parent != nil; i, cur = i-1, cur.parent {
		out[i] = cur.component
	}
	return out
}
