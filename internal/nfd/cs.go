package nfd

import (
	"time"

	"dapes/internal/ndn"
)

// ContentStore is an LRU cache of Data packets indexed through the shared
// name tree: exact lookups descend the tree component-wise, and — for
// Interests with CanBePrefix — prefix lookups walk the subtree under the
// Interest name in ndn.Name.Compare order (lexicographic per component;
// NDN's length-first component ordering is not used for DAPES's
// human-readable labels), so the entry chosen among several candidates is
// deterministic by construction.
//
// Entries carry NDN freshness: a packet is fresh until FreshnessPeriod
// elapses after insertion (a packet with no FreshnessPeriod is never
// fresh). Interests with MustBeFresh skip stale entries; Interests without
// it are served from stale entries as the NDN spec allows. Stale entries
// are not proactively erased — LRU eviction alone bounds the store.
//
// The store keeps each packet's original wire: an inserted *ndn.Data caches
// the frame it was decoded from (encode-once contract), so a cache hit
// answers with those exact bytes and never pays a re-encode.
type ContentStore struct {
	capacity int
	tree     *NameTree
	clock    Clock // nil ⇒ the clock is pinned at 0 (nothing ever goes stale)
	// lru is the sentinel of the entries' recency ring: lru.next is the most
	// recently used entry, lru.prev the least. n counts the entries.
	lru csEntry
	n   int
}

type csEntry struct {
	node       *nameTreeNode
	data       *ndn.Data
	staleAt    time.Duration // virtual time the entry stops being fresh
	prev, next *csEntry      // neighbours in the recency ring
}

// NewContentStoreWithClock returns a store whose freshness decisions are
// driven by clock.
func NewContentStoreWithClock(capacity int, clock Clock) *ContentStore {
	return newContentStoreOn(NewNameTree(), capacity, clock)
}

// newContentStoreOn mounts the store on an existing (possibly shared) tree.
func newContentStoreOn(tree *NameTree, capacity int, clock Clock) *ContentStore {
	c := &ContentStore{capacity: capacity, tree: tree, clock: clock}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// unlink takes e out of the recency ring.
func (e *csEntry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// toFront makes e, unlinked, the most recently used entry.
func (c *ContentStore) toFront(e *csEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *ContentStore) now() time.Duration {
	if c.clock == nil {
		return 0
	}
	return c.clock.Now()
}

// staleAt computes when data inserted now stops being fresh. Data without a
// FreshnessPeriod is stale immediately (NDN packet spec §Data).
func staleAt(now time.Duration, data *ndn.Data) time.Duration {
	if data.Freshness <= 0 {
		return now
	}
	return now + data.Freshness
}

// Insert caches data, evicting the least recently used entry if full.
// Re-inserting an existing name refreshes its recency, content, and
// freshness timer.
func (c *ContentStore) Insert(data *ndn.Data) {
	if c.capacity == 0 {
		return
	}
	node := c.tree.fill(data.Name)
	if e := node.cs; e != nil {
		e.data = data
		e.staleAt = staleAt(c.now(), data)
		e.unlink()
		c.toFront(e)
		return
	}
	// Attach before evicting: eviction prunes the evicted spine, and when
	// the new name is a payload-free interior node on that spine, pruning
	// first would detach the very node the entry is about to live on.
	e := &csEntry{node: node, data: data, staleAt: staleAt(c.now(), data)}
	c.toFront(e)
	c.n++
	node.cs = e
	if c.n > c.capacity {
		c.evict(c.lru.prev)
	}
}

func (c *ContentStore) evict(e *csEntry) {
	e.unlink()
	c.n--
	e.node.cs = nil
	c.tree.prune(e.node)
}

// Find returns a cached packet satisfying the Interest, or nil. The exact
// node is tried first; when the Interest allows prefix matching, the
// subtree under the Interest name is walked in canonical order and the
// first acceptable entry wins. A hit refreshes LRU recency. The lookup
// path performs no allocation.
func (c *ContentStore) Find(interest *ndn.Interest) *ndn.Data {
	now := c.now()
	node := c.tree.find(interest.Name)
	if node != nil {
		var e *csEntry
		if interest.CanBePrefix {
			e = findUnder(node, interest.MustBeFresh, now)
		} else {
			e = acceptable(node, interest.MustBeFresh, now)
		}
		if e != nil {
			e.unlink()
			c.toFront(e)
			return e.data
		}
	}
	return nil
}

// acceptable returns the node's CS entry if it satisfies the freshness
// constraint.
func acceptable(n *nameTreeNode, mustBeFresh bool, now time.Duration) *csEntry {
	e := n.cs
	if e == nil || mustBeFresh && e.staleAt <= now {
		return nil
	}
	return e
}

// findUnder walks the subtree rooted at n pre-order (parents before
// children, children in sorted component order — i.e. ndn.Name.Compare
// order) and returns the first acceptable entry.
func findUnder(n *nameTreeNode, mustBeFresh bool, now time.Duration) *csEntry {
	if e := acceptable(n, mustBeFresh, now); e != nil {
		return e
	}
	for _, child := range n.children {
		if e := findUnder(child, mustBeFresh, now); e != nil {
			return e
		}
	}
	return nil
}
