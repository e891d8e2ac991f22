package geo

import (
	"math"
	"math/rand"
	"testing"
)

// TestGridFarCoordinatesDoNotAlias is the int32-truncation regression test:
// the seed cellFor cast math.Floor through int32, so two nodes more than
// 2³¹ cells apart could land in the same bucket — a query near one would
// return the other, and worse, a node near the origin could miss a genuine
// neighbor whose aliased cell fell outside the scanned window. Distant
// nodes must stay out of each other's query results, and a genuine
// co-located pair at extreme coordinates must still find each other.
func TestGridFarCoordinatesDoNotAlias(t *testing.T) {
	t.Parallel()
	g := NewGrid(10)
	// 2³² cells of 10m ≈ 4.3e10 m. Under int32 truncation the far node's
	// cell index wraps to exactly the origin cell.
	far := float64(1<<32) * 10
	g.Insert(0, Point{X: 5, Y: 5})
	g.Insert(1, Point{X: far + 5, Y: 5})
	if got := g.QueryRange(Point{X: 5, Y: 5}, 15, nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("query near origin = %v, want [0] (far node aliased into the origin cell)", got)
	}
	if got := g.QueryRange(Point{X: far + 5, Y: 5}, 15, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("query near far node = %v, want [1]", got)
	}

	// A co-located pair out past the old wrap point must still see each
	// other (superset guarantee holds at extreme coordinates).
	g.Insert(2, Point{X: -far + 3, Y: -far + 3})
	g.Insert(3, Point{X: -far + 7, Y: -far + 7})
	got := g.QueryRange(Point{X: -far + 5, Y: -far + 5}, 15, nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("query at far negative coordinates = %v, want [2 3]", got)
	}
}

// TestCellCoordClamps pins the conversion contract: coordinates beyond the
// clamp bound saturate (preserving order against every in-range value)
// instead of hitting Go's implementation-defined float→int conversion, and
// NaN maps to a fixed cell.
func TestCellCoordClamps(t *testing.T) {
	t.Parallel()
	const bound = int64(1) << 62
	cases := []struct {
		v    float64
		want int64
	}{
		{0, 0},
		{-1, -1},
		{1e6, 1_000_000},
		{math.Inf(1), bound},
		{math.Inf(-1), -bound},
		{1e300, bound},
		{-1e300, -bound},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := cellCoord(c.v); got != c.want {
			t.Fatalf("cellCoord(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestShardOfStripes(t *testing.T) {
	t.Parallel()
	const cell, width = 100.0, 1000.0 // 10 cells
	// 4 shards over 10 cells, proportional split floor(cx·4/10): stripes of
	// cells [0..2] [3..4] [5..7] [8..9] — widths differ by at most one cell.
	cases := []struct {
		x    float64
		want int
	}{
		{0, 0}, {299, 0}, {300, 1}, {499, 1}, {500, 2}, {799, 2}, {800, 3}, {999, 3},
		{-50, 0},  // clamp left
		{5000, 3}, // clamp right
		{1000, 3}, // exactly the width edge clamps into the last stripe
	}
	for _, c := range cases {
		if got := ShardOf(Point{X: c.x, Y: 500}, cell, width, 4); got != c.want {
			t.Fatalf("ShardOf(x=%v) = %d, want %d", c.x, got, c.want)
		}
	}

	// Fewer than 2 shards is always shard 0; Y never matters.
	if got := ShardOf(Point{X: 950, Y: -1e9}, cell, width, 1); got != 0 {
		t.Fatalf("ShardOf with n=1 = %d, want 0", got)
	}

	// Every position maps into [0, n) even when n exceeds the cell count.
	for n := 2; n <= 16; n++ {
		for x := -200.0; x <= 1200; x += 37 {
			s := ShardOf(Point{X: x}, cell, width, n)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(x=%v, n=%d) = %d, out of range", x, n, s)
			}
		}
	}

	// Shard assignment is monotone in X: walking right never decreases the
	// shard index (stripes are contiguous).
	for n := 2; n <= 8; n++ {
		prev := 0
		for x := 0.0; x < width; x++ {
			s := ShardOf(Point{X: x}, cell, width, n)
			if s < prev {
				t.Fatalf("ShardOf not monotone at x=%v n=%d: %d after %d", x, n, s, prev)
			}
			prev = s
		}
		if prev != n-1 && float64(n) <= width/cell {
			t.Fatalf("n=%d: rightmost position lands in shard %d, want %d (all stripes populated)", n, prev, n-1)
		}
	}
}

// TestUniformStripesMatchShardOf pins UniformStripes as the executable
// twin of ShardOf: for every position — inside the world, clamped outside
// it, and with more stripes than columns — the two must agree, because
// experiment homing switched from ShardOf arithmetic to a Stripes value
// and the S=1 / uniform paths must not move a single node.
func TestUniformStripesMatchShardOf(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	for _, tc := range []struct {
		cell, width float64
		n           int
	}{
		{100, 1000, 4}, {100, 1000, 7}, {60, 3000, 4}, {30, 905, 16},
		{100, 1000, 13}, {100, 350, 8}, // more stripes than columns
		{50, 49, 3}, // single-column world
	} {
		st := UniformStripes(tc.cell, tc.width, tc.n)
		if st.N() != tc.n {
			t.Fatalf("N() = %d, want %d", st.N(), tc.n)
		}
		for i := 0; i < 2000; i++ {
			x := (rng.Float64()*1.4 - 0.2) * tc.width // 20% overhang each side
			p := Point{X: x, Y: rng.Float64() * 100}
			if got, want := st.Of(p), ShardOf(p, tc.cell, tc.width, tc.n); got != want {
				t.Fatalf("cell=%v width=%v n=%d x=%v: Stripes.Of = %d, ShardOf = %d",
					tc.cell, tc.width, tc.n, x, got, want)
			}
		}
	}
	if got := UniformStripes(100, 1000, 1).Of(Point{X: 5000}); got != 0 {
		t.Fatalf("n=1 stripes mapped to %d, want 0", got)
	}
}

// TestBalancedStripesEqualCounts pins the density balancing: with a
// heavily skewed t=0 distribution, the CDF cuts must even out the
// per-stripe node counts (the whole point — a hotspot stripe gates every
// window), stay on grid-cell boundaries, remain strictly increasing, and
// be a deterministic function of the inputs.
func TestBalancedStripesEqualCounts(t *testing.T) {
	t.Parallel()
	const cell, width, n = 60.0, 3000.0, 4
	rng := rand.New(rand.NewSource(17))
	// 80% of nodes crowd the leftmost fifth of the world.
	xs := make([]float64, 0, 1000)
	for i := 0; i < 800; i++ {
		xs = append(xs, rng.Float64()*width/5)
	}
	for i := 0; i < 200; i++ {
		xs = append(xs, rng.Float64()*width)
	}

	st := BalancedStripes(cell, width, n, xs)
	counts := make([]int, n)
	for _, x := range xs {
		counts[st.Of(Point{X: x})]++
	}
	for s, c := range counts {
		// Equal shares are 250; cell granularity (50 columns, hot ones
		// holding ~20 nodes) justifies slack, a hotspot stripe does not.
		if c < len(xs)/n-80 || c > len(xs)/n+80 {
			t.Fatalf("stripe %d holds %d of %d nodes, want ~%d (counts %v)", s, c, len(xs), len(xs)/n, counts)
		}
	}

	// Uniform stripes over the same skew concentrate the hotspot — that
	// contrast is what makes the balancing observable.
	uni := UniformStripes(cell, width, n)
	uniCounts := make([]int, n)
	for _, x := range xs {
		uniCounts[uni.Of(Point{X: x})]++
	}
	if uniCounts[0] <= counts[0] {
		t.Fatalf("balancing did not reduce the hotspot stripe: uniform %v, balanced %v", uniCounts, counts)
	}

	cuts := st.Cuts()
	if len(cuts) != n-1 {
		t.Fatalf("Cuts() returned %d boundaries, want %d", len(cuts), n-1)
	}
	prev := 0.0
	for _, c := range cuts {
		if c <= prev || c >= width {
			t.Fatalf("cuts not strictly increasing inside the world: %v", cuts)
		}
		if _, frac := math.Modf(c / cell); frac != 0 {
			t.Fatalf("cut %v is not grid-aligned to cell %v", c, cell)
		}
		prev = c
	}

	// Deterministic, input-order independent (it sorts a copy), and
	// non-mutating.
	shuffled := append([]float64(nil), xs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	st2 := BalancedStripes(cell, width, n, shuffled)
	for _, x := range xs {
		if st.Of(Point{X: x}) != st2.Of(Point{X: x}) {
			t.Fatal("balanced stripes depend on input order")
		}
	}

	// Degenerate shapes: no positions falls back to the uniform partition;
	// an all-one-column hotspot still yields a valid strictly-increasing
	// partition; narrow worlds fall back to uniform.
	if empty := BalancedStripes(cell, width, n, nil); empty.Of(Point{X: 2900}) != uni.Of(Point{X: 2900}) {
		t.Fatal("empty-input BalancedStripes is not the uniform partition")
	}
	hot := BalancedStripes(cell, width, n, []float64{10, 11, 12, 13, 14})
	for x := 0.0; x < width; x += 7 {
		if s := hot.Of(Point{X: x}); s < 0 || s >= n {
			t.Fatalf("hotspot partition mapped x=%v to %d", x, s)
		}
	}
	narrow := BalancedStripes(cell, 2*cell, n, xs)
	if got := narrow.Of(Point{X: cell / 2}); got != ShardOf(Point{X: cell / 2}, cell, 2*cell, n) {
		t.Fatalf("narrow-world fallback diverged from ShardOf: %d", got)
	}
}
