package nfd

import (
	"fmt"
	"testing"

	"dapes/internal/ndn"
)

// benchNames builds n two-level collections ("/p/<i>/file/<j>") plus the
// CanBePrefix query Interests ("/p/<i>/file") an application would send —
// the exact shape DAPES discovery and bitmap signaling use.
func benchNames(n int) (datas []*ndn.Data, queries []*ndn.Interest) {
	const perColl = 4
	datas = make([]*ndn.Data, 0, n)
	queries = make([]*ndn.Interest, 0, n/perColl)
	for i := 0; len(datas) < n; i++ {
		coll := ndn.ParseName(fmt.Sprintf("/p/%04d/file", i))
		queries = append(queries, &ndn.Interest{Name: coll, CanBePrefix: true})
		for j := 0; j < perColl && len(datas) < n; j++ {
			d := &ndn.Data{Name: coll.AppendSeq(j), Content: []byte("x")}
			d.SignDigest()
			datas = append(datas, d)
		}
	}
	return datas, queries
}

// BenchmarkCsPrefixFind measures a CanBePrefix Content Store lookup with
// 10k cached packets through the name-tree descent. The gate is 0
// allocs/op (TestLookupPathsDoNotAllocate) and the time is nfd.cs_find_ns
// in BENCHMARK.json; the ratio over the seed's LRU-list scan is history in
// docs/PERFORMANCE.md.
func BenchmarkCsPrefixFind(b *testing.B) {
	const n = 10_000
	datas, queries := benchNames(n)

	b.Run("tree", func(b *testing.B) {
		cs := NewContentStore(n)
		for _, d := range datas {
			cs.Insert(d)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cs.Find(queries[i%len(queries)]) == nil {
				b.Fatal("miss")
			}
		}
	})
}

// BenchmarkFibLookup measures longest-prefix match against 10k registered
// prefixes through the name-tree descent. Same 0 allocs/op gate as
// BenchmarkCsPrefixFind.
func BenchmarkFibLookup(b *testing.B) {
	const n = 10_000
	face := &Face{id: 1}
	prefixes := make([]ndn.Name, n)
	lookups := make([]ndn.Name, n)
	for i := range prefixes {
		prefixes[i] = ndn.ParseName(fmt.Sprintf("/p/%05d/coll", i))
		// Lookups are deeper than the registered prefix, as real Interest
		// names are ("/p/<i>/coll/file/<seq>").
		lookups[i] = prefixes[i].Append("file").AppendSeq(i % 16)
	}

	b.Run("tree", func(b *testing.B) {
		fib := NewFib()
		for _, p := range prefixes {
			fib.Insert(p, face)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fib.Lookup(lookups[i%n]) == nil {
				b.Fatal("miss")
			}
		}
	})
}

// TestLookupPathsDoNotAllocate pins the 0 allocs/op claim as a test, so a
// regression fails CI rather than just drifting a benchmark number.
func TestLookupPathsDoNotAllocate(t *testing.T) {
	datas, queries := benchNames(1000)
	cs := NewContentStore(1000)
	for _, d := range datas {
		cs.Insert(d)
	}
	fib := NewFib()
	face := &Face{id: 1}
	for _, q := range queries {
		fib.Insert(q.Name, face)
	}
	_, clock := testClock()
	pit := NewPit(clock)

	exact := &ndn.Interest{Name: datas[42].Name}
	missName := ndn.ParseName("/p/0007/file/nothere")
	noRouteName := ndn.ParseName("/q/none")
	miss := &ndn.Interest{Name: missName}
	lookupName := datas[42].Name

	cases := []struct {
		name string
		fn   func()
	}{
		{"cs-exact-hit", func() { cs.Find(exact) }},
		{"cs-prefix-hit", func() { cs.Find(queries[7]) }},
		{"cs-miss", func() { cs.Find(miss) }},
		{"fib-lookup-hit", func() { fib.Lookup(lookupName) }},
		{"fib-lookup-miss", func() { fib.Lookup(noRouteName) }},
		{"pit-find", func() { pit.Find(lookupName) }},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(200, tc.fn); got != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, got)
		}
	}
}
