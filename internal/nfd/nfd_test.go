package nfd

import (
	"math/rand"
	"testing"
	"time"

	"dapes/internal/ndn"
	"dapes/internal/sim"
)

func testClock() (*sim.Kernel, Clock) {
	k := sim.NewKernel(1)
	return k, KernelClock{K: k}
}

func mkData(uri, content string) *ndn.Data {
	d := &ndn.Data{Name: ndn.ParseName(uri), Content: []byte(content)}
	d.SignDigest()
	return d
}

func TestContentStoreExactAndPrefix(t *testing.T) {
	t.Parallel()
	cs := NewContentStore(10)
	cs.Insert(mkData("/coll/file/0", "a"))
	cs.Insert(mkData("/coll/file/1", "b"))

	if d := cs.Find(&ndn.Interest{Name: ndn.ParseName("/coll/file/0")}); d == nil {
		t.Fatal("exact match missed")
	}
	if d := cs.Find(&ndn.Interest{Name: ndn.ParseName("/coll/file")}); d != nil {
		t.Fatal("prefix matched without CanBePrefix")
	}
	if d := cs.Find(&ndn.Interest{Name: ndn.ParseName("/coll/file"), CanBePrefix: true}); d == nil {
		t.Fatal("prefix match missed with CanBePrefix")
	}
	if d := cs.Find(&ndn.Interest{Name: ndn.ParseName("/other"), CanBePrefix: true}); d != nil {
		t.Fatal("unrelated prefix matched")
	}
}

func TestContentStoreLRUEviction(t *testing.T) {
	t.Parallel()
	cs := NewContentStore(2)
	cs.Insert(mkData("/a/0", "x"))
	cs.Insert(mkData("/a/1", "x"))
	// Touch /a/0 so /a/1 becomes LRU.
	if cs.Find(&ndn.Interest{Name: ndn.ParseName("/a/0")}) == nil {
		t.Fatal("find failed")
	}
	cs.Insert(mkData("/a/2", "x"))
	if cs.Len() != 2 {
		t.Fatalf("Len = %d, want 2", cs.Len())
	}
	if cs.Find(&ndn.Interest{Name: ndn.ParseName("/a/1")}) != nil {
		t.Fatal("LRU entry not evicted")
	}
	if cs.Find(&ndn.Interest{Name: ndn.ParseName("/a/0")}) == nil {
		t.Fatal("recently used entry evicted")
	}
}

func TestContentStoreZeroCapacity(t *testing.T) {
	t.Parallel()
	cs := NewContentStore(0)
	cs.Insert(mkData("/a/0", "x"))
	if cs.Len() != 0 {
		t.Fatal("zero-capacity store cached data")
	}
}

func TestContentStoreReinsertRefreshes(t *testing.T) {
	t.Parallel()
	cs := NewContentStore(2)
	cs.Insert(mkData("/a/0", "old"))
	cs.Insert(mkData("/a/1", "x"))
	cs.Insert(mkData("/a/0", "new")) // refresh: /a/1 now LRU
	cs.Insert(mkData("/a/2", "x"))
	got := cs.Find(&ndn.Interest{Name: ndn.ParseName("/a/0")})
	if got == nil || string(got.Content) != "new" {
		t.Fatalf("refreshed entry = %v", got)
	}
}

func TestPitAggregationAndExpiry(t *testing.T) {
	t.Parallel()
	k, clock := testClock()
	pit := NewPit(clock)
	f1 := &Face{id: 1}
	f2 := &Face{id: 2}

	in1 := &ndn.Interest{Name: ndn.ParseName("/x/0"), Nonce: 1}
	in2 := &ndn.Interest{Name: ndn.ParseName("/x/0"), Nonce: 2}

	_, agg := pit.Insert(in1, f1, time.Second)
	if agg {
		t.Fatal("first insert reported aggregated")
	}
	e, agg := pit.Insert(in2, f2, time.Second)
	if !agg {
		t.Fatal("second insert not aggregated")
	}
	if len(e.Downstreams()) != 2 {
		t.Fatalf("downstreams = %d, want 2", len(e.Downstreams()))
	}

	// Expiry after lifetime.
	k.Run(2 * time.Second)
	if pit.Len() != 0 {
		t.Fatalf("PIT not expired: len=%d", pit.Len())
	}
}

func TestPitSatisfyRemovesEntry(t *testing.T) {
	t.Parallel()
	_, clock := testClock()
	pit := NewPit(clock)
	f := &Face{id: 1}
	pit.Insert(&ndn.Interest{Name: ndn.ParseName("/x/0")}, f, time.Second)
	d := mkData("/x/0", "v")
	e := pit.Satisfy(d)
	if e == nil || pit.Len() != 0 {
		t.Fatal("satisfy did not consume entry")
	}
	if pit.Satisfy(d) != nil {
		t.Fatal("second satisfy returned entry")
	}
}

func TestFibLongestPrefixMatch(t *testing.T) {
	t.Parallel()
	fib := NewFib()
	fShort := &Face{id: 1}
	fLong := &Face{id: 2}
	fib.Insert(ndn.ParseName("/coll"), fShort)
	fib.Insert(ndn.ParseName("/coll/file"), fLong)

	hops := fib.Lookup(ndn.ParseName("/coll/file/3"))
	if len(hops) != 1 || hops[0] != fLong {
		t.Fatalf("LPM chose %v, want the longer prefix", hops)
	}
	hops = fib.Lookup(ndn.ParseName("/coll/other"))
	if len(hops) != 1 || hops[0] != fShort {
		t.Fatalf("fallback chose %v", hops)
	}
	if fib.Lookup(ndn.ParseName("/elsewhere")) != nil {
		t.Fatal("unmatched name returned hops")
	}

	fib.Remove(ndn.ParseName("/coll/file"), fLong)
	hops = fib.Lookup(ndn.ParseName("/coll/file/3"))
	if len(hops) != 1 || hops[0] != fShort {
		t.Fatalf("after remove, chose %v", hops)
	}
}

func TestFibDuplicateInsertIdempotent(t *testing.T) {
	t.Parallel()
	fib := NewFib()
	f := &Face{id: 1}
	fib.Insert(ndn.ParseName("/a"), f)
	fib.Insert(ndn.ParseName("/a"), f)
	if got := fib.Lookup(ndn.ParseName("/a/b")); len(got) != 1 {
		t.Fatalf("duplicate insert produced %d hops", len(got))
	}
}

// TestPitEntryExpiresDownstreamGone pins the PIT's lifetime rules: an
// entry is gone once its lifetime passes, a re-Insert before then restarts
// the lifetime, and the cancelled timer of a satisfied entry cannot remove
// a later entry for the same name.
func TestPitEntryExpiresDownstreamGone(t *testing.T) {
	t.Parallel()
	k, clock := testClock()
	pit := NewPit(clock)
	f := &Face{id: 1}
	name := ndn.ParseName("/coll/0")
	d := mkData("/coll/0", "v")

	// After the lifetime, Data finds no downstream. (Run's argument is an
	// absolute virtual time; the comments below give the clock in seconds.)
	pit.Insert(&ndn.Interest{Name: name, Nonce: 1}, f, time.Second)
	k.Run(2 * time.Second)
	if pit.Satisfy(d) != nil || pit.Len() != 0 {
		t.Fatalf("expired entry still pending: len=%d", pit.Len())
	}

	// Inserted at 2 (deadline 3), re-Inserted at 2.5: the entry outlives 3
	// and is gone after its restarted deadline, 3.5.
	pit.Insert(&ndn.Interest{Name: name, Nonce: 2}, f, time.Second)
	k.Run(2500 * time.Millisecond)
	if _, agg := pit.Insert(&ndn.Interest{Name: name, Nonce: 3}, f, time.Second); !agg {
		t.Fatal("re-Insert before expiry made a new entry")
	}
	k.Run(3200 * time.Millisecond)
	if pit.Find(name) == nil {
		t.Fatal("re-Insert did not restart the lifetime")
	}
	k.Run(3600 * time.Millisecond)
	if pit.Find(name) != nil || pit.Len() != 0 {
		t.Fatal("entry outlived its restarted lifetime")
	}

	// Satisfy cancels the entry's timer; a new entry for the same name must
	// survive the old deadline and expire on its own.
	pit.Insert(&ndn.Interest{Name: name, Nonce: 4}, f, time.Second) // deadline 4.6
	k.Run(4 * time.Second)
	if pit.Satisfy(d) == nil {
		t.Fatal("pending entry not satisfied")
	}
	pit.Insert(&ndn.Interest{Name: name, Nonce: 5}, f, time.Second) // deadline 5
	k.Run(4800 * time.Millisecond)
	if pit.Find(name) == nil || pit.Len() != 1 {
		t.Fatal("the satisfied entry's timer removed its successor")
	}
	k.Run(5500 * time.Millisecond)
	if pit.Len() != 0 {
		t.Fatal("successor entry never expired")
	}
}

// TestPitDownstreamsSortedStable: Downstreams() used to iterate a Go map,
// so its order varied run to run. Faces are inserted in shuffled orders;
// every call must come back sorted by face ID.
func TestPitDownstreamsSortedStable(t *testing.T) {
	t.Parallel()
	_, clock := testClock()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		pit := NewPit(clock)
		faces := make([]*Face, 40)
		for i := range faces {
			faces[i] = &Face{id: i}
		}
		var entry *PitEntry
		for _, i := range rng.Perm(len(faces)) {
			entry, _ = pit.Insert(&ndn.Interest{Name: ndn.ParseName("/x"), Nonce: uint32(i)},
				faces[i], time.Second)
		}
		for call := 0; call < 3; call++ {
			ds := entry.Downstreams()
			if len(ds) != len(faces) {
				t.Fatalf("downstreams = %d, want %d", len(ds), len(faces))
			}
			for i, f := range ds {
				if f.id != i {
					t.Fatalf("trial %d: downstream[%d].id = %d; order not sorted by face ID", trial, i, f.id)
				}
			}
		}
	}
}

// TestContentStoreFreshness covers the MustBeFresh semantics end to end at
// the table level: fresh entries satisfy, stale entries are skipped (but
// still satisfy plain Interests), and data without a FreshnessPeriod is
// never fresh.
func TestContentStoreFreshness(t *testing.T) {
	t.Parallel()
	k, clock := testClock()
	cs := NewContentStoreWithClock(4, clock)

	fresh := mkData("/f/0", "v")
	fresh.Freshness = 2 * time.Second
	fresh.SignDigest()
	cs.Insert(fresh)
	noPeriod := mkData("/f/1", "v") // no FreshnessPeriod: stale from birth
	cs.Insert(noPeriod)

	mbf := func(uri string) *ndn.Interest {
		return &ndn.Interest{Name: ndn.ParseName(uri), MustBeFresh: true}
	}
	if cs.Find(mbf("/f/0")) == nil {
		t.Fatal("fresh entry not served to MustBeFresh")
	}
	if cs.Find(mbf("/f/1")) != nil {
		t.Fatal("entry without FreshnessPeriod served to MustBeFresh")
	}
	if cs.Find(&ndn.Interest{Name: ndn.ParseName("/f/1")}) == nil {
		t.Fatal("stale entry refused to a plain Interest")
	}

	// Cross the freshness deadline: /f/0 goes stale for MustBeFresh but
	// still serves plain Interests.
	k.Run(3 * time.Second)
	if cs.Find(mbf("/f/0")) != nil {
		t.Fatal("stale entry served to MustBeFresh")
	}
	if cs.Find(&ndn.Interest{Name: ndn.ParseName("/f/0")}) == nil {
		t.Fatal("stale entry refused to a plain Interest")
	}

	// Re-inserting restarts the freshness window.
	cs.Insert(fresh)
	if cs.Find(mbf("/f/0")) == nil {
		t.Fatal("re-insert did not refresh freshness")
	}

	// Prefix matching skips stale entries and lands on a fresh deeper one.
	deep := mkData("/f/1/deep", "v")
	deep.Freshness = time.Minute
	deep.SignDigest()
	cs.Insert(deep)
	got := cs.Find(&ndn.Interest{Name: ndn.ParseName("/f/1"), CanBePrefix: true, MustBeFresh: true})
	if got == nil || !got.Name.Equal(deep.Name) {
		t.Fatalf("prefix MustBeFresh = %v, want /f/1/deep", got)
	}
}

// TestContentStorePrefixCanonicalOrder pins which entry a CanBePrefix
// lookup selects when several match: the exact node first, then the
// smallest in ndn.Name.Compare order (lexicographic per component) —
// independent of insertion or recency order. The seed implementation
// returned the most recently used match, which depended on request
// history.
func TestContentStorePrefixCanonicalOrder(t *testing.T) {
	t.Parallel()
	cs := NewContentStore(8)
	cs.Insert(mkData("/p/z", "z"))
	cs.Insert(mkData("/p/a/x", "ax"))
	cs.Insert(mkData("/p/a", "a"))

	got := cs.Find(&ndn.Interest{Name: ndn.ParseName("/p"), CanBePrefix: true})
	if got == nil || got.Name.String() != "/p/a" {
		t.Fatalf("canonical-order match = %v, want /p/a", got)
	}
	// Touch /p/z to make it most recent; the choice must not change.
	cs.Find(&ndn.Interest{Name: ndn.ParseName("/p/z")})
	got = cs.Find(&ndn.Interest{Name: ndn.ParseName("/p"), CanBePrefix: true})
	if got == nil || got.Name.String() != "/p/a" {
		t.Fatalf("recency changed prefix-match choice: %v", got)
	}
	// An exact entry at the Interest name itself wins over descendants.
	cs.Insert(mkData("/p", "p"))
	got = cs.Find(&ndn.Interest{Name: ndn.ParseName("/p"), CanBePrefix: true})
	if got == nil || got.Name.String() != "/p" {
		t.Fatalf("exact node not preferred: %v", got)
	}
}
