package geo

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestGridInsertMoveQuery(t *testing.T) {
	t.Parallel()
	g := NewGrid(10)
	g.Insert(0, Point{X: 5, Y: 5})
	g.Insert(1, Point{X: 15, Y: 5})
	g.Insert(2, Point{X: 95, Y: 95})

	got := g.QueryRange(Point{X: 6, Y: 6}, 12, nil)
	want := []int{0, 1}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("QueryRange = %v, want %v", got, want)
	}

	// Moving within the same cell must not duplicate the entry.
	g.Move(0, Point{X: 6, Y: 6})
	if got := g.QueryRange(Point{X: 6, Y: 6}, 12, nil); len(got) != 2 {
		t.Fatalf("after same-cell move QueryRange = %v, want 2 ids", got)
	}

	// Moving far away removes it from the old neighborhood.
	g.Move(0, Point{X: 95, Y: 95})
	if got := g.QueryRange(Point{X: 6, Y: 6}, 12, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after far move QueryRange = %v, want [1]", got)
	}
	if got := g.QueryRange(Point{X: 95, Y: 95}, 5, nil); len(got) != 2 {
		t.Fatalf("destination cell QueryRange = %v, want ids 0 and 2", got)
	}

}

func TestGridQueryRangeNegativeCoordinates(t *testing.T) {
	t.Parallel()
	g := NewGrid(25)
	g.Insert(0, Point{X: -40, Y: -40})
	g.Insert(1, Point{X: -10, Y: -10})
	g.Insert(2, Point{X: 40, Y: 40})
	got := g.QueryRange(Point{X: -30, Y: -30}, 30, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("QueryRange around negative center = %v, want [0 1]", got)
	}
}

func TestGridRejectsBadCellSize(t *testing.T) {
	t.Parallel()
	for _, size := range []float64{0, -1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGrid(%v) did not panic", size)
				}
			}()
			NewGrid(size)
		}()
	}
}

// bruteForce is what QueryRange must return: the ids, ascending, whose stored
// position lies within r of center.
func bruteForce(pts map[int]Point, center Point, r float64) []int {
	var want []int
	for id, p := range pts {
		if center.Distance(p) <= r {
			want = append(want, id)
		}
	}
	sort.Ints(want)
	return want
}

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

// TestGridQueryMatchesBruteForce is the grid's core property: against random
// populations, cell sizes, and query discs, QueryRange returns exactly the
// brute-force set over the stored positions — whatever the bucketing did with
// them, including a Move inside one cell changing the stored point — in
// ascending order.
func TestGridQueryMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	random := func() Point {
		return Point{X: (rng.Float64() - 0.5) * 400, Y: (rng.Float64() - 0.5) * 400}
	}
	for iter := 0; iter < 200; iter++ {
		cell := 1 + rng.Float64()*80
		g := NewGrid(cell)
		n := 1 + rng.Intn(60)
		pts := make(map[int]Point, n)
		for i := 0; i < n; i++ {
			pts[i] = random()
			g.Insert(i, pts[i])
		}
		// Shuffle some entries with Move: across the world, and by less than
		// a cell so that most stay in the bucket they were in.
		for j := 0; j < n; j++ {
			id := rng.Intn(n)
			if j%2 == 0 {
				pts[id] = random()
			} else {
				pts[id] = pts[id].Add((rng.Float64()-0.5)*cell/4, (rng.Float64()-0.5)*cell/4)
			}
			g.Move(id, pts[id])
		}
		for q := 0; q < 10; q++ {
			center, r := random(), rng.Float64()*150
			if q == 0 && len(pts) > 0 {
				// A disc whose edge passes exactly through a stored point.
				for _, p := range pts {
					r = center.Distance(p)
					break
				}
			}
			got := g.QueryRange(center, r, nil)
			if want := bruteForce(pts, center, r); !slices.Equal(got, want) {
				t.Fatalf("iter %d: QueryRange(%v, %v) = %v, want %v", iter, center, r, got, want)
			}
		}
	}
}

// TestGridHugeRadiusTerminates: a radius wider than the world — the clamped
// cell range of r = +Inf spans 2⁶³ cells — walks the occupied window once and
// returns every id, the overflow's included; r = NaN returns nothing.
func TestGridHugeRadiusTerminates(t *testing.T) {
	t.Parallel()
	g := NewGrid(60)
	pts := map[int]Point{0: {X: 10, Y: 10}, 1: {X: 2900, Y: 1500}, 2: {X: -1e15, Y: 1e15}}
	for id, p := range pts {
		g.Insert(id, p)
	}
	for _, r := range []float64{math.Inf(1), 1e18, math.MaxFloat64} {
		if got, want := g.QueryRange(Point{X: 1500, Y: 1500}, r, nil), []int{0, 1, 2}; !slices.Equal(got, want) {
			t.Fatalf("QueryRange(r=%v) = %v, want %v", r, got, want)
		}
	}
	if got := g.QueryRange(Point{}, math.NaN(), nil); len(got) != 0 {
		t.Fatalf("QueryRange(r=NaN) = %v, want nothing", got)
	}
}

// TestGridFarAndSparseStayLinear: the dense window is bounded by the
// population, not by the coordinates. Outliers — at ±1e18, at NaN — and a
// population spread thinner than the window affords go to the overflow
// bucket; queries stay exact and the bucket count stays within a constant of
// the id count.
func TestGridFarAndSparseStayLinear(t *testing.T) {
	t.Parallel()
	affordable := func(g *Grid, n int) {
		t.Helper()
		if got, limit := len(g.buckets), int(windowBudget(n))+1; got > limit {
			t.Fatalf("%d buckets for %d ids, want at most %d", got, n, limit)
		}
	}
	rng := rand.New(rand.NewSource(5))

	// A 300 m world with four ids that are nowhere near it, inserted in the
	// middle of it.
	g := NewGrid(20)
	pts := map[int]Point{}
	outliers := []Point{{X: 1e18, Y: 1e18}, {X: -1e18, Y: 40}, {X: math.NaN(), Y: 10}, {X: 150, Y: math.Inf(1)}}
	for i := 0; i < 49; i++ {
		pts[i] = Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		if i >= 20 && i < 20+len(outliers) {
			pts[i] = outliers[i-20]
		}
		g.Insert(i, pts[i])
	}
	affordable(g, len(pts))
	// (NaN buckets as cell 0, inside this window; no query ever returns it.)
	if over := len(g.buckets[len(g.buckets)-1]); over != len(outliers)-1 {
		t.Fatalf("%d entries in the overflow bucket, want the %d far outliers only", over, len(outliers)-1)
	}
	for _, q := range []struct {
		c Point
		r float64
	}{
		{Point{X: 150, Y: 150}, 100},
		{Point{X: 1e18, Y: 1e18}, 1},
		{Point{X: -1e18, Y: 0}, 50},
	} {
		if got, want := g.QueryRange(q.c, q.r, nil), bruteForce(pts, q.c, q.r); !slices.Equal(got, want) {
			t.Fatalf("QueryRange(%v, %v) = %v, want %v", q.c, q.r, got, want)
		}
	}
	// An outlier that comes home, or near enough for the window to reach it,
	// leaves the overflow; an entry that goes far joins it.
	pts[20], pts[21], pts[0] = Point{X: 10, Y: 10}, Point{X: -100, Y: 40}, Point{X: 0, Y: -1e12}
	for _, id := range []int{20, 21, 0} {
		g.Move(id, pts[id])
	}
	if got, want := g.QueryRange(Point{}, 400, nil), bruteForce(pts, Point{}, 400); !slices.Equal(got, want) {
		t.Fatalf("after moves QueryRange = %v, want %v", got, want)
	}
	if over := len(g.buckets[len(g.buckets)-1]); over != 2 {
		t.Fatalf("%d entries in the overflow after two came back and one left, want 2", over)
	}
	affordable(g, len(pts))

	// 100 ids over a 1,000 km square of 60 m cells: 2.8e8 cells in the
	// bounding box.
	g = NewGrid(60)
	pts = map[int]Point{}
	for i := 0; i < 100; i++ {
		pts[i] = Point{X: rng.Float64() * 1e6, Y: rng.Float64() * 1e6}
		g.Insert(i, pts[i])
	}
	affordable(g, len(pts))
	for i := 0; i < 100; i++ {
		if got, want := g.QueryRange(pts[i], 5e4, nil), bruteForce(pts, pts[i], 5e4); !slices.Equal(got, want) {
			t.Fatalf("sparse QueryRange around id %d = %v, want %v", i, got, want)
		}
	}

}

// TestGridWindowHoldsAffordableWorld: a population whose bounding box the
// window affords ends up with nothing in the overflow — so no query scans
// more than its own cells — whatever order it arrived in and without a Move
// afterwards. 50k ids at the paper's density and its shortest range, 20 m:
// 500×500 cells, 5 per id.
func TestGridWindowHoldsAffordableWorld(t *testing.T) {
	t.Parallel()
	const n, side = 50000, 10000.0
	rng := rand.New(rand.NewSource(11))
	uniform := make([]Point, n)
	for i := range uniform {
		uniform[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	raster := slices.Clone(uniform)
	slices.SortFunc(raster, func(a, b Point) int {
		return cmp.Or(cmp.Compare(math.Floor(a.Y/20), math.Floor(b.Y/20)), cmp.Compare(a.X, b.X))
	})
	// The first ids scattered while the population affords no window that
	// holds them, every later one inside a tenth of the arena.
	scattered := slices.Clone(uniform)
	for i := 2000; i < n; i++ {
		scattered[i] = Point{X: 4500 + scattered[i].X/10, Y: 4500 + scattered[i].Y/10}
	}
	for name, pts := range map[string][]Point{"uniform": uniform, "raster": raster, "scattered first": scattered} {
		g := NewGrid(20)
		for i, p := range pts {
			g.Insert(i, p)
		}
		if got, limit := len(g.buckets), int(windowBudget(n))+1; got > limit {
			t.Fatalf("%s: %d buckets for %d ids, want at most %d", name, got, n, limit)
		}
		if over := len(g.buckets[len(g.buckets)-1]); over != 0 {
			t.Fatalf("%s: %d of %d entries left in the overflow of a world the window affords", name, over, n)
		}
		c := pts[n/2]
		got := g.QueryRange(c, 30, nil)
		var want []int
		for i, p := range pts {
			if c.Distance(p) <= 30 {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: QueryRange = %v, want %v", name, got, want)
		}
	}
}

func TestMaxSpeedBounds(t *testing.T) {
	t.Parallel()
	if v := MaxSpeedOf(Stationary{}); v != 0 {
		t.Fatalf("Stationary MaxSpeed = %v, want 0", v)
	}
	w := NewRandomDirection(RandomDirectionConfig{
		Area:     Rect{Width: 100, Height: 100},
		MinSpeed: 2, MaxSpeed: 9,
		RNG: rand.New(rand.NewSource(1)),
	})
	if v := MaxSpeedOf(w); v != 9 {
		t.Fatalf("RandomDirection MaxSpeed = %v, want 9", v)
	}
	// A misconfigured walker (MinSpeed > MaxSpeed) still draws legs between
	// the two values, so the bound must be the larger one, never 0.
	inverted := NewRandomDirection(RandomDirectionConfig{
		Area:     Rect{Width: 100, Height: 100},
		MinSpeed: 5,
		RNG:      rand.New(rand.NewSource(2)),
	})
	if v := MaxSpeedOf(inverted); v != 5 {
		t.Fatalf("inverted-config RandomDirection MaxSpeed = %v, want 5", v)
	}

	// Scripted: 100 m in 10 s then 50 m in 100 s -> bound 10 m/s.
	s := NewScripted([]Waypoint{
		{At: 0, Pos: Point{X: 0, Y: 0}},
		{At: 10 * time.Second, Pos: Point{X: 100, Y: 0}},
		{At: 110 * time.Second, Pos: Point{X: 150, Y: 0}},
	})
	if v := MaxSpeedOf(s); math.Abs(v-10) > 1e-9 {
		t.Fatalf("Scripted MaxSpeed = %v, want 10", v)
	}

	// A teleport (two waypoints at the same instant) has no finite bound.
	tp := NewScripted([]Waypoint{
		{At: time.Second, Pos: Point{X: 0, Y: 0}},
		{At: time.Second, Pos: Point{X: 5, Y: 0}},
	})
	if v := MaxSpeedOf(tp); !math.IsInf(v, 1) {
		t.Fatalf("teleporting Scripted MaxSpeed = %v, want +Inf", v)
	}

	// An unknown model without Speeder has no bound either.
	if v := MaxSpeedOf(plainMobility{}); !math.IsInf(v, 1) {
		t.Fatalf("unknown model MaxSpeed = %v, want +Inf", v)
	}

	// The walker's actual excursions must respect the reported bound.
	var prev Point
	prevT := time.Duration(0)
	for ti := time.Duration(0); ti <= 5*time.Minute; ti += 500 * time.Millisecond {
		p := w.PositionAt(ti)
		if ti > 0 {
			dt := (ti - prevT).Seconds()
			if d := prev.Distance(p); d > 9*dt+1e-6 {
				t.Fatalf("walker moved %v m in %v s, exceeds MaxSpeed 9", d, dt)
			}
		}
		prev, prevT = p, ti
	}
}

// plainMobility implements Mobility but not Speeder.
type plainMobility struct{}

func (plainMobility) PositionAt(time.Duration) Point { return Point{} }
