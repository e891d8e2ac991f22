package nfd

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"dapes/internal/ndn"
)

// checkTreeInvariants walks the whole tree verifying the structural
// contract every table relies on: children sorted strictly ascending,
// parent/depth links consistent, and — when requireOccupied is set, i.e.
// every fill was followed by a payload attach — no empty non-root nodes
// (prune must never leave dead weight behind).
func checkTreeInvariants(t *testing.T, tree *NameTree, requireOccupied bool) {
	t.Helper()
	var walk func(n *nameTreeNode)
	walk = func(n *nameTreeNode) {
		for i, child := range n.children {
			if i > 0 && n.children[i-1].component >= child.component {
				t.Fatalf("children out of order at %q: %q >= %q",
					n.name(), n.children[i-1].component, child.component)
			}
			if child.parent != n || child.depth != n.depth+1 {
				t.Fatalf("broken parent/depth link at %q", child.name())
			}
			if requireOccupied && child.empty() {
				t.Fatalf("unpruned empty node %q", child.name())
			}
			walk(child)
		}
	}
	walk(&tree.root)
}

func TestNameTreeFillFindPrune(t *testing.T) {
	t.Parallel()
	tree := NewNameTree()
	names := []string{"/a/b/c", "/a/b", "/a/z", "/b", "/", "/a/b/c/d/e"}
	nodes := make(map[string]*nameTreeNode)
	for _, uri := range names {
		nodes[uri] = tree.fill(ndn.ParseName(uri))
	}
	// fill is idempotent and find agrees with it.
	for _, uri := range names {
		if got := tree.fill(ndn.ParseName(uri)); got != nodes[uri] {
			t.Fatalf("re-fill of %s made a new node", uri)
		}
		if got := tree.find(ndn.ParseName(uri)); got != nodes[uri] {
			t.Fatalf("find(%s) = %v, want the filled node", uri, got)
		}
		if got := nodes[uri].name().String(); got != uri {
			t.Fatalf("name() = %s, want %s", got, uri)
		}
	}
	if tree.find(ndn.ParseName("/a/missing")) != nil {
		t.Fatal("find invented a node")
	}

	// Give the leaf a payload, prune an interior node: nothing may vanish
	// while a descendant lives.
	nodes["/a/b/c/d/e"].pit = &PitEntry{}
	tree.prune(nodes["/a/b"])
	if tree.find(ndn.ParseName("/a/b/c/d/e")) == nil {
		t.Fatal("prune removed an ancestor of a live payload")
	}
	// Drop the payload: pruning the leaf must now unwind the whole spine
	// up to the surviving /a/z branch.
	nodes["/a/b/c/d/e"].pit = nil
	tree.prune(nodes["/a/b/c/d/e"])
	if tree.find(ndn.ParseName("/a/b")) != nil {
		t.Fatal("empty spine survived prune")
	}
	if tree.find(ndn.ParseName("/a/z")) == nil {
		t.Fatal("prune took out a sibling branch")
	}
	checkTreeInvariants(t, tree, false)
}

func TestNameTreeChildOrderDeterministic(t *testing.T) {
	t.Parallel()
	// Insert components in a shuffled order; traversal order must come out
	// sorted regardless.
	labels := []string{"zeta", "alpha", "mu", "beta", "omega", "kappa", "07", "0", "a"}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		tree := NewNameTree()
		perm := rng.Perm(len(labels))
		for _, i := range perm {
			tree.fill(ndn.ParseName("/p/" + labels[i]))
		}
		p := tree.find(ndn.ParseName("/p"))
		got := make([]string, len(p.children))
		for i, c := range p.children {
			got[i] = string(c.component)
		}
		if !sort.StringsAreSorted(got) {
			t.Fatalf("children not sorted: %v (insert order %v)", got, perm)
		}
	}
}

// TestSharedTreePayloadIsolation drives all three tables of one Forwarder
// onto the same names and checks that one table's removals never disturb
// another's payloads — the core safety property of sharing the tree.
func TestSharedTreePayloadIsolation(t *testing.T) {
	t.Parallel()
	k, clock := testClock()
	fw := NewForwarder(clock, Config{CsCapacity: 2})
	net := fw.AddFace(false, nil)
	name := ndn.ParseName("/shared/x")

	fw.Fib().Insert(name, net)
	fw.Pit().Insert(&ndn.Interest{Name: name, Nonce: 1}, net, time.Second)
	fw.Cs().Insert(mkData("/shared/x", "v"))

	// CS eviction (capacity 2: two more inserts evict /shared/x) must not
	// remove the FIB or PIT payloads on the same node.
	fw.Cs().Insert(mkData("/other/1", "v"))
	fw.Cs().Insert(mkData("/other/2", "v"))
	if got := fw.Fib().Lookup(ndn.ParseName("/shared/x/deeper")); len(got) != 1 {
		t.Fatal("CS eviction broke FIB entry on shared node")
	}
	if fw.Pit().Find(name) == nil {
		t.Fatal("CS eviction broke PIT entry on shared node")
	}

	// PIT expiry must leave the FIB entry alone.
	k.Run(2 * time.Second)
	if fw.Pit().len != 0 {
		t.Fatal("PIT entry did not expire")
	}
	if got := fw.Fib().Lookup(name); len(got) != 1 {
		t.Fatal("PIT expiry broke FIB entry")
	}
	checkTreeInvariants(t, fw.tree, true)
}

// TestContentStoreEvictionOnInsertedSpine: inserting a name that is a
// prefix of the entry being evicted must leave the new entry reachable.
// (The eviction prune used to run before the new payload was attached, so
// it detached the payload-free interior node the entry was about to live
// on, orphaning it forever.)
func TestContentStoreEvictionOnInsertedSpine(t *testing.T) {
	t.Parallel()
	cs := NewContentStoreWithClock(1, nil)
	cs.Insert(mkData("/a/b", "deep"))
	cs.Insert(mkData("/a", "shallow")) // evicts /a/b, whose spine contains /a
	if cs.n != 1 {
		t.Fatalf("Len = %d, want 1", cs.n)
	}
	got := cs.Find(&ndn.Interest{Name: ndn.ParseName("/a")})
	if got == nil || string(got.Content) != "shallow" {
		t.Fatalf("entry on evicted spine unreachable: %v", got)
	}
	checkTreeInvariants(t, cs.tree, true)
}

// TestNameTreeChurnInvariants hammers one shared tree with randomized
// CS/PIT/FIB inserts, CS evictions and PIT expiries, and re-checks the
// structural invariants throughout.
func TestNameTreeChurnInvariants(t *testing.T) {
	t.Parallel()
	k, clock := testClock()
	tree := NewNameTree()
	cs := newContentStoreOn(tree, 32, clock)
	pit := newPitOn(tree, clock)
	fib := newFibOn(tree)
	faces := []*Face{{id: 0}, {id: 1}, {id: 2}}

	rng := rand.New(rand.NewSource(11))
	uris := make([]string, 60)
	for i := range uris {
		uris[i] = ndn.ParseName("/churn").AppendSeq(rng.Intn(40)).AppendSeq(rng.Intn(5)).String()
	}
	for step := 0; step < 2000; step++ {
		uri := uris[rng.Intn(len(uris))]
		name := ndn.ParseName(uri)
		switch rng.Intn(6) {
		case 0:
			cs.Insert(mkData(uri, "v"))
		case 1:
			cs.Find(&ndn.Interest{Name: name, CanBePrefix: rng.Intn(2) == 0})
		case 2:
			pit.Insert(&ndn.Interest{Name: name, Nonce: rng.Uint32()}, faces[rng.Intn(3)], time.Duration(1+rng.Intn(3))*time.Second)
		case 3:
			k.Run(k.Now() + time.Second) // expires the PIT entries due by then
		case 4, 5:
			fib.Insert(name, faces[rng.Intn(3)])
		}
		if step%250 == 0 {
			checkTreeInvariants(t, tree, true)
		}
	}
	checkTreeInvariants(t, tree, true)
	if cs.n > 32 {
		t.Fatalf("CS overflow: %d", cs.n)
	}
}
