package nfd

import (
	"dapes/internal/ndn"
)

// Fib is the Forwarding Information Base: name prefixes mapped to next-hop
// faces, matched by longest prefix. Prefixes live on the shared name tree,
// so a lookup is a single component-wise descent that remembers the deepest
// node carrying next hops — the seed implementation built one prefix string
// per length per lookup (O(depth²) bytes allocated); this path allocates
// nothing.
type Fib struct {
	tree *NameTree
}

// NewFib returns an empty FIB.
func NewFib() *Fib {
	return newFibOn(NewNameTree())
}

// newFibOn mounts the FIB on an existing (possibly shared) tree.
func newFibOn(tree *NameTree) *Fib {
	return &Fib{tree: tree}
}

// Insert registers face as a next hop for prefix. Next hops are kept sorted
// by face ID, so a lookup's order is deterministic regardless of
// registration order. Duplicate registrations are idempotent.
func (f *Fib) Insert(prefix ndn.Name, face *Face) {
	node := f.tree.fill(prefix)
	i := faceSearch(node.fib, face.id)
	if i < len(node.fib) && node.fib[i].id == face.id {
		return
	}
	node.fib = append(node.fib, nil)
	copy(node.fib[i+1:], node.fib[i:])
	node.fib[i] = face
}

// Remove unregisters face from prefix, pruning the tree node when the last
// next hop goes away.
func (f *Fib) Remove(prefix ndn.Name, face *Face) {
	node := f.tree.find(prefix)
	if node == nil {
		return
	}
	for i, existing := range node.fib {
		if existing.id == face.id {
			copy(node.fib[i:], node.fib[i+1:])
			node.fib[len(node.fib)-1] = nil
			node.fib = node.fib[:len(node.fib)-1]
			if len(node.fib) == 0 {
				node.fib = nil
				f.tree.prune(node)
			}
			return
		}
	}
}

// Lookup returns the next hops for the longest registered prefix of name,
// or nil when no prefix matches. The returned slice is the FIB's own
// storage — callers must not modify it. Allocation-free.
func (f *Fib) Lookup(name ndn.Name) []*Face {
	n := &f.tree.root
	best := n.fib
	for _, c := range name {
		if n = n.child(c); n == nil {
			break
		}
		if len(n.fib) > 0 {
			best = n.fib
		}
	}
	if len(best) == 0 {
		return nil
	}
	return best
}
