package geo

import (
	"math"
	"math/bits"
	"sort"
)

// gridCell addresses one square cell of the plane.
type gridCell struct{ x, y int64 }

// gridEntry is one indexed id with the position it was last given, held
// inline in its bucket so a query decides membership from the memory it is
// already reading.
type gridEntry struct {
	id int
	p  Point
}

// gridSlot locates an id's entry: buckets[bucket][i]. bucket is -1 while the
// id is absent.
type gridSlot struct{ bucket, i int32 }

// Grid is a uniform spatial index mapping small non-negative integer IDs to
// 2D positions. Cells are square with a fixed edge; a range query visits only
// the cells intersecting the query disc, so with a cell size matching the
// query radius it touches a small constant number of cells regardless of
// population.
//
// The buckets are one dense row-major window over the occupied cells: the
// cell (cx, cy) is buckets[(cy-y0)*w+(cx-x0)], and a query's cells are a few
// short runs of one slice. The window grows to the bounding box of the
// population whenever that is at most windowBudget(n) cells, 16 to 32 per id;
// entries whose cell it cannot afford to reach (a radio at 1e18 m, a world
// spread thinner than that) share one overflow bucket (the slice's last
// element) that every query scans. Membership is decided by
// stored position, never by bucket, so where an entry is bucketed changes only
// what a query costs: memory and query time stay O(population) whatever the
// coordinates are.
//
// QueryRange returns ids in ascending order. Callers that iterate them and
// perform side effects (the wireless medium scheduling receptions) rely on
// that order being identical to a brute-force scan over IDs, so it is part of
// the contract, not an implementation detail.
type Grid struct {
	cell float64
	// The window spans cells [x0, x0+w) × [y0, y0+h); len(buckets) == w*h+1.
	x0, y0, w, h int64
	buckets      [][]gridEntry
	slots        []gridSlot
	n            int // ids present
	// spare is what is left of the chunk put cuts a bucket's first
	// bucketFirst entries from, so filling a world's cells is a chunk of
	// them at a time — each as many entries as there are ids, from 8 up to
	// spareMax — not an array or two per cell. A bucket that outgrows its
	// cut moves out to an array of its own: a cut is capped at bucketFirst,
	// so it never grows into its neighbour's.
	spare []gridEntry
}

// bucketFirst is the capacity a bucket is first given, and spareMax the most
// entries put takes from the heap at once. At the density the repository's
// worlds keep, a cell holds about two radios at a 60 m range, and at most a
// handful beside the 100 m the paper sweeps to.
const (
	bucketFirst = 4
	spareMax    = 4096
)

// windowBudget is how many cells the window may hold for n ids: 16 for each,
// with n rounded up to a power of two so that a growing population raises the
// budget — and has grow lay the window out again — O(log n) times, not once
// per insert. The window is as large as the population's bounding box, not as
// the budget, so the number only decides which worlds overflow. Those this
// repository runs keep the paper's density, 45 nodes on 300 m × 300 m,
// whatever their size, which with cell edge = radio range r is (300/r)²/45
// cells per node: 0.2 at 100 m, 0.56 at 60 m, 5 at the paper's shortest range
// of 20 m. 16 holds that last one with grow's padding (up to 2.25× the box)
// to spare, and caps any world at 32 cells of 24 B per id: 768 B, a sixth of
// what a simulated node holds. The floor keeps small worlds windowed however
// thin they are.
func windowBudget(n int) int64 {
	const floor, perID = 1024, 16
	if n < 1 {
		return floor
	}
	return floor + perID<<bits.Len(uint(n-1))
}

// NewGrid returns an empty grid with the given cell edge length in meters.
// Cell size should match the dominant query radius so queries touch a small
// constant number of cells. It panics on a non-positive cell size.
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) {
		panic("geo: NewGrid requires a positive cell size")
	}
	return &Grid{cell: cellSize, buckets: make([][]gridEntry, 1)}
}

// cellCoord converts one floored cell index to int64, clamping instead of
// truncating. The seed implementation cast through int32, so a mobility
// model wandering past ±2³¹ cells silently aliased distant buckets and
// made QueryRange miss entries within its radius. The clamp bound sits
// far beyond the last float64 with unit precision, so clamped coordinates
// still order correctly against every in-range value, and NaN (from a
// degenerate position) maps to a fixed cell instead of tripping Go's
// implementation-defined float→int conversion.
func cellCoord(v float64) int64 {
	const bound = int64(1) << 62
	switch {
	case math.IsNaN(v):
		return 0
	case v >= float64(bound):
		return bound
	case v <= -float64(bound):
		return -bound
	}
	return int64(v)
}

// cellIndex returns the floored, clamped cell index of coordinate v on one
// axis of a grid with the given cell edge.
func cellIndex(v, cellSize float64) int64 {
	return cellCoord(math.Floor(v / cellSize))
}

func (g *Grid) cellFor(p Point) gridCell {
	return gridCell{
		x: cellIndex(p.X, g.cell),
		y: cellIndex(p.Y, g.cell),
	}
}

// bucketOf returns the index of c's bucket: its place in the window, or the
// overflow bucket's when c lies outside.
func (g *Grid) bucketOf(c gridCell) int {
	// Unsigned compares fold the two-sided bounds checks; a difference that
	// wraps (cells 2⁶³ apart) still lands outside [0, w).
	dx, dy := uint64(c.x-g.x0), uint64(c.y-g.y0)
	if dx >= uint64(g.w) || dy >= uint64(g.h) {
		return len(g.buckets) - 1
	}
	return int(int64(dy)*g.w + int64(dx))
}

// put appends e to bucket b and records where it went.
func (g *Grid) put(e gridEntry, b int) {
	if cap(g.buckets[b]) == 0 {
		if len(g.spare) < bucketFirst {
			g.spare = make([]gridEntry, min(max(g.n, 8), spareMax))
		}
		g.buckets[b], g.spare = g.spare[:0:bucketFirst], g.spare[bucketFirst:]
	}
	g.slots[e.id] = gridSlot{bucket: int32(b), i: int32(len(g.buckets[b]))}
	g.buckets[b] = append(g.buckets[b], e)
}

// take removes the entry at s, filling the hole with its bucket's last.
func (g *Grid) take(s gridSlot) {
	es := g.buckets[s.bucket]
	last := es[len(es)-1]
	es[s.i] = last
	g.slots[last.id].i = s.i
	g.buckets[s.bucket] = es[:len(es)-1]
}

// grow extends the window to the bounding box of itself, c, and every
// overflow entry that box can be stretched to while the population affords its
// cells — so what is left in the overflow is what no window could hold — and
// then pads each side it moved by up to half its extent, as far as the budget
// allows, so a population spreading outwards lays the window out again only
// O(log) times. It reports whether the window changed.
func (g *Grid) grow(c gridCell) bool {
	// Cells past ±2⁵² are not whole numbers of cells apart (and clamped ones
	// are up to 2⁶³ apart); nothing there is worth a window.
	const far = int64(1) << 52
	budget := windowBudget(g.n)
	x0, y0, x1, y1 := c.x, c.y, c.x, c.y
	// add stretches the box to d if the budget allows.
	add := func(d gridCell) bool {
		if max(d.x, -d.x, d.y, -d.y) > far {
			return false
		}
		nx0, ny0, nx1, ny1 := min(x0, d.x), min(y0, d.y), max(x1, d.x), max(y1, d.y)
		if nx1-nx0+1 > budget/(ny1-ny0+1) {
			return false
		}
		x0, y0, x1, y1 = nx0, ny0, nx1, ny1
		return true
	}
	if !add(c) {
		return false
	}
	if g.w > 0 && !(add(gridCell{g.x0, g.y0}) && add(gridCell{g.x0 + g.w - 1, g.y0 + g.h - 1})) {
		return false
	}
	for _, e := range g.buckets[len(g.buckets)-1] {
		add(g.cellFor(e.p))
	}
	if g.w > 0 {
		for pad := max(g.w, g.h) / 2; pad > 0; pad /= 2 {
			px0, py0, px1, py1 := x0, y0, x1, y1
			if x0 < g.x0 {
				px0 -= pad
			}
			if y0 < g.y0 {
				py0 -= pad
			}
			if x1 > g.x0+g.w-1 {
				px1 += pad
			}
			if y1 > g.y0+g.h-1 {
				py1 += pad
			}
			if px1-px0+1 <= budget/(py1-py0+1) {
				x0, y0, x1, y1 = px0, py0, px1, py1
				break
			}
		}
	}
	if w, h := x1-x0+1, y1-y0+1; w != g.w || h != g.h {
		g.rewindow(x0, y0, w, h)
		return true
	}
	return false
}

// rewindow lays the buckets out again over a window that contains the
// current one: window buckets move as they are, and the overflow's entries
// get a place if the new window covers them.
func (g *Grid) rewindow(x0, y0, w, h int64) {
	old, ow, oh := g.buckets, g.w, g.h
	g.buckets = make([][]gridEntry, w*h+1)
	for row := int64(0); row < oh; row++ {
		copy(g.buckets[(g.y0+row-y0)*w+(g.x0-x0):], old[row*ow:(row+1)*ow])
	}
	g.x0, g.y0, g.w, g.h = x0, y0, w, h
	for b, es := range g.buckets {
		for i, e := range es {
			g.slots[e.id] = gridSlot{bucket: int32(b), i: int32(i)}
		}
	}
	for _, e := range old[ow*oh] {
		g.put(e, g.bucketOf(g.cellFor(e.p)))
	}
}

// Insert adds id at position p. Inserting an already-present id behaves
// like Move. IDs must be non-negative and should be dense (they index an
// internal slice).
func (g *Grid) Insert(id int, p Point) { g.Move(id, p) }

// Move updates id's stored position, re-bucketing only when its cell
// changed. Moving an absent id inserts it. An entry bound for the overflow
// asks for the window to grow first — on every Move, since what the
// population could not afford when the entry arrived it may afford now — and
// the insert that raises the budget asks on behalf of the entries left there
// that never move.
func (g *Grid) Move(id int, p Point) {
	for id >= len(g.slots) {
		g.slots = append(g.slots, gridSlot{bucket: -1})
	}
	inserted := g.slots[id].bucket < 0
	if inserted {
		g.n++
		if g.w > 0 && len(g.buckets[len(g.buckets)-1]) > 0 && windowBudget(g.n) > windowBudget(g.n-1) {
			g.grow(gridCell{g.x0, g.y0})
		}
	}
	c := g.cellFor(p)
	b := g.bucketOf(c)
	if b == len(g.buckets)-1 && g.grow(c) {
		b = g.bucketOf(c)
	}
	if !inserted {
		s := g.slots[id]
		if int(s.bucket) == b {
			g.buckets[b][s.i].p = p
			return
		}
		g.take(s)
	}
	g.put(gridEntry{id: id, p: p}, b)
}

// QueryRange appends to out exactly the ids whose stored position — the one
// last passed to Insert/Move — lies within r of center (Point.Distance ≤ r,
// the same float expression a brute-force scan evaluates) and returns out
// sorted in ascending ID order. Callers whose entries move between updates
// must bound how far one may have drifted from its stored position and widen
// r by that bound.
func (g *Grid) QueryRange(center Point, r float64, out []int) []int {
	if !(r >= 0) {
		return out
	}
	// Cells are culled against a radius a hair wider than r, so the rounding
	// in p/cell and cx·cell (a few ulps of the coordinate) can never cull the
	// cell of an entry the exact test below would keep.
	reach := r + (r+math.Abs(center.X)+math.Abs(center.Y))*0x1p-40
	lo := g.cellFor(Point{X: center.X - reach, Y: center.Y - reach})
	hi := g.cellFor(Point{X: center.X + reach, Y: center.Y + reach})
	// Only the window holds buckets; r = +Inf walks it once, not 2⁶³ cells.
	lo.x, lo.y = max(lo.x, g.x0), max(lo.y, g.y0)
	hi.x, hi.y = min(hi.x, g.x0+g.w-1), min(hi.y, g.y0+g.h-1)
	reach2 := reach * reach
	for cy := lo.y; cy <= hi.y; cy++ {
		dy := axisDist(center.Y, float64(cy)*g.cell, g.cell)
		row := g.buckets[(cy-g.y0)*g.w:]
		for cx := lo.x; cx <= hi.x; cx++ {
			es := row[cx-g.x0]
			if len(es) == 0 {
				continue
			}
			dx := axisDist(center.X, float64(cx)*g.cell, g.cell)
			if dx*dx+dy*dy > reach2 {
				continue
			}
			out = appendWithin(out, es, center, r)
		}
	}
	out = appendWithin(out, g.buckets[len(g.buckets)-1], center, r)
	sort.Ints(out)
	return out
}

// appendWithin appends the ids of the entries stored within r of center.
func appendWithin(out []int, es []gridEntry, center Point, r float64) []int {
	for _, e := range es {
		if center.Distance(e.p) <= r {
			out = append(out, e.id)
		}
	}
	return out
}

// axisDist returns the distance from coordinate v to the interval
// [lo, lo+width] along one axis (0 when v lies inside it).
func axisDist(v, lo, width float64) float64 {
	if v < lo {
		return lo - v
	}
	if v > lo+width {
		return v - (lo + width)
	}
	return 0
}
