package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestStreamPinnedOutputs pins the generator and the derivation: the first
// eight outputs of two fixed (seed, node, purpose) streams. A change here
// moves every trace in the repository and is a declared rebaseline
// (docs/CONTRACTS.md): regenerate the goldens in a commit of their own.
func TestStreamPinnedOutputs(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		seed    int64
		node    int
		purpose Purpose
		want    [8]uint64
	}{
		{1, 0, PurposeMobility, [8]uint64{
			0xdb0f9160fb234b5f, 0x45634032cdbfb759, 0xfb0bc74361b9dc4a, 0xe15143458abeb630,
			0x17ccdb089cf6f32c, 0x1463d7a3d38e838e, 0x33c74f720bbf3c60, 0x86308b29015d8bba}},
		{-7919, 50_002, PurposeTransport, [8]uint64{
			0x05234ab7c1c541b6, 0x3bccafda06cb7c1f, 0xf095317e24feb081, 0xdf32752bf7890197,
			0x91f19c0c5358afa2, 0x7dad73ad81be1cef, 0x88ba44733f761dfb, 0xb57d4bfe700f0882}},
	} {
		s := NewStream(c.seed, c.node, c.purpose)
		var got [8]uint64
		for i := range got {
			got[i] = s.Uint64()
		}
		if got != c.want {
			t.Errorf("NewStream(%d, %d, %d) = %#x, want %#x", c.seed, c.node, c.purpose, got, c.want)
		}
	}
	// The generator itself is SplitMix64: Vigna's reference from state 0.
	var ref Stream
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := ref.Uint64(); got != want {
			t.Errorf("SplitMix64 from state 0, output %d = %#x, want %#x", i, got, want)
		}
	}
}

// chiSquare returns the statistic of observed counts against a uniform
// expectation.
func chiSquare(counts []int, draws int) float64 {
	expect := float64(draws) / float64(len(counts))
	var x2 float64
	for _, c := range counts {
		d := float64(c) - expect
		x2 += d * d / expect
	}
	return x2
}

// TestStreamUniformity: chi-square on Int63n at bounds that are not powers
// of two (a small one, and a 62-bit one where a modulo reduction would be
// badly biased) and on Float64 deciles. The 99.9th percentile of
// chi-square is 27.9 at 9 degrees of freedom and 149.4 at 100; the streams
// are fixed, so this is a pinned pass, not a flaky one.
func TestStreamUniformity(t *testing.T) {
	t.Parallel()
	const draws = 1_000_000
	s := NewStream(3, 1, PurposePeer)

	small := make([]int, 101)
	for i := 0; i < draws; i++ {
		small[s.Int63n(int64(len(small)))]++
	}
	if x2 := chiSquare(small, draws); x2 > 149.4 {
		t.Errorf("Int63n(101): chi-square %.1f over 100 degrees of freedom", x2)
	}

	// Three eighths of the int63 range: x mod n would reach the top third of
	// [0, n) only two thirds as often as the rest.
	const wide = int64(3) << 60
	thirds := make([]int, 3)
	for i := 0; i < draws; i++ {
		v := s.Int63n(wide)
		if v < 0 || v >= wide {
			t.Fatalf("Int63n(%d) = %d", wide, v)
		}
		thirds[v/(wide/3)]++
	}
	if x2 := chiSquare(thirds, draws); x2 > 13.8 { // 99.9th percentile at 2 degrees
		t.Errorf("Int63n(3<<60): thirds %v, chi-square %.1f", thirds, x2)
	}

	deciles := make([]int, 10)
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		deciles[int(f*10)]++
	}
	if x2 := chiSquare(deciles, draws); x2 > 27.9 {
		t.Errorf("Float64 deciles %v: chi-square %.1f over 9 degrees of freedom", deciles, x2)
	}
}

// TestStreamSiblingsUncorrelated: the streams of neighbouring nodes, of
// neighbouring purposes, and of the additive collision the old chain seed
// had — (seed, node+1) against (seed+1 000 003, node) — are different
// streams with no linear relation: over 10^5 paired Float64 draws the sample
// correlation stays within 4 sigma (1/sqrt(n) each) of zero.
func TestStreamSiblingsUncorrelated(t *testing.T) {
	t.Parallel()
	const n = 100_000
	for _, c := range []struct {
		name string
		a, b Stream
	}{
		{"node, node+1", NewStream(5, 10, PurposePeer), NewStream(5, 11, PurposePeer)},
		{"purpose, purpose+1", NewStream(5, 10, PurposeChannel), NewStream(5, 10, PurposeReception)},
		{"(node+1, purpose) vs (node, purpose+1)", NewStream(5, 11, PurposeChannel), NewStream(5, 10, PurposeReception)},
		{"(seed, node+1) vs (seed+1000003, node)", NewStream(5, 11, PurposeChannel), NewStream(5+1_000_003, 10, PurposeChannel)},
		{"seed, seed+1", NewStream(5, 10, PurposePeer), NewStream(6, 10, PurposePeer)},
	} {
		if c.a == c.b {
			t.Errorf("%s: the same stream", c.name)
			continue
		}
		var sa, sb, saa, sbb, sab float64
		for i := 0; i < n; i++ {
			x, y := c.a.Float64(), c.b.Float64()
			sa, sb, saa, sbb, sab = sa+x, sb+y, saa+x*x, sbb+y*y, sab+x*y
		}
		cov := sab/n - sa/n*sb/n
		r := cov / math.Sqrt((saa/n-sa/n*sa/n)*(sbb/n-sb/n*sb/n))
		if math.Abs(r) > 4/math.Sqrt(n) {
			t.Errorf("%s: correlation %.4f over %d pairs", c.name, r, n)
		}
	}
}

// TestStreamDoesNotAllocate: deriving a stream and drawing from it touch no
// heap — a node holds its streams by value.
func TestStreamDoesNotAllocate(t *testing.T) {
	k := NewKernel(9)
	var sink int64
	if n := testing.AllocsPerRun(100, func() {
		s := k.Stream(42, PurposeRelay)
		sink += s.Int63n(1000) + int64(s.Intn(7)) + int64(s.Float64()*8) + int64(s.Jitter(time.Second)) + int64(s.Uint64()>>60)
	}); n != 0 {
		t.Fatalf("derive + draw: %v allocs, want 0", n)
	}
	_ = sink
}

// TestStreamIsARandSource: rand.New(&s) draws the stream's own sequence, so
// the *rand.Rand methods a Stream lacks (Read, NormFloat64, ...) stay
// available without a second generator.
func TestStreamIsARandSource(t *testing.T) {
	t.Parallel()
	var _ rand.Source64 = (*Stream)(nil)
	a, b := NewStream(1, 2, PurposeContent), NewStream(1, 2, PurposeContent)
	r := rand.New(&a)
	for i := 0; i < 16; i++ {
		if got, want := r.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d through rand.New: %#x, stream: %#x", i, got, want)
		}
	}
}

// TestStreamPerm: Perm is a permutation, and over many draws every element
// visits every position about equally often.
func TestStreamPerm(t *testing.T) {
	t.Parallel()
	const n, rounds = 5, 50_000
	s := NewStream(8, 0, PurposePeer)
	at := make([]int, n*n) // at[v*n+pos]
	for r := 0; r < rounds; r++ {
		p := s.Perm(n)
		seen := 0
		for pos, v := range p {
			seen |= 1 << v
			at[v*n+pos]++
		}
		if len(p) != n || seen != 1<<n-1 {
			t.Fatalf("Perm(%d) = %v", n, p)
		}
	}
	if x2 := chiSquare(at, rounds*n); x2 > 42.3 { // 99.9th percentile at 16 free cells
		t.Errorf("Perm positions %v: chi-square %.1f", at, x2)
	}
}

// TestStreamPartitionInvariant: the shard kernels of a 1-, 2- and 4-stripe
// ShardedKernel, and the sequential kernel, hand out the identical stream for
// the same node — a node's draws do not depend on which stripe hosts it.
func TestStreamPartitionInvariant(t *testing.T) {
	t.Parallel()
	const seed = 1234
	want := NewKernel(seed).Stream(17, PurposeRelay)
	for _, shards := range []int{1, 2, 4} {
		sk := NewShardedKernel(seed, shards, time.Microsecond)
		for i := 0; i < shards; i++ {
			if got := sk.Shard(i).Stream(17, PurposeRelay); got != want {
				t.Errorf("%d stripes, shard %d: stream %+v, sequential kernel's %+v", shards, i, got, want)
			}
		}
		sk.Close()
	}
	if other := NewKernel(seed+1).Stream(17, PurposeRelay); other == want {
		t.Error("trial seeds 1234 and 1235 derive the same stream")
	}
}
