package geo

import (
	"math"
	"sort"
)

// Speeder is an optional Mobility extension reporting an upper bound on a
// model's speed. Spatial indexes over moving nodes (phy.Medium's grid) use
// the bound to widen queries by how far a node may have drifted from its
// stored position, and to decide when to store it again; models without a
// finite bound are stored again on every query timestamp instead.
type Speeder interface {
	// MaxSpeed returns an upper bound on the node's speed in meters per
	// second. 0 means the node never moves.
	MaxSpeed() float64
}

// MaxSpeedOf returns m's speed bound, or +Inf when the model does not
// implement Speeder (no bound known).
func MaxSpeedOf(m Mobility) float64 {
	if s, ok := m.(Speeder); ok {
		return s.MaxSpeed()
	}
	return math.Inf(1)
}

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
// short runs of one slice. The window grows to follow the population but
// never past windowFloor+windowPerID·n cells; entries whose cell lies outside
// it share one overflow bucket (the slice's last element) that every query
// scans. Membership is decided by stored position, never by bucket, so where
// an entry is bucketed changes only what a query costs: memory and query time
// stay O(population) whatever the coordinates are.
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
}

// The window may hold this many cells for n ids. A uniform world whose nodes
// average one neighbour within a cell edge occupies about π cells per node;
// the floor keeps the paper's 45-node arena windowed at its shortest range.
const (
	windowFloor = 1024
	windowPerID = 4
)

// NewGrid returns an empty grid with the given cell edge length in meters.
// Cell size should match the dominant query radius so queries touch a small
// constant number of cells. It panics on a non-positive cell size.
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) {
		panic("geo: NewGrid requires a positive cell size")
	}
	return &Grid{cell: cellSize, buckets: make([][]gridEntry, 1)}
}

// CellSize returns the cell edge length the grid was built with.
func (g *Grid) CellSize() float64 { return g.cell }

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

// CellIndex returns the floored cell index of coordinate v on one axis of
// a grid with the given cell edge, with the same clamping as Grid's own
// bucketing. Exported so code that reasons about grid cells from outside —
// stripe homing (Stripes), the wireless medium's stripe-boundary occupancy
// columns — shares one definition of "which cell is this" with the index
// itself.
func CellIndex(v, cellSize float64) int64 {
	return cellCoord(math.Floor(v / cellSize))
}

func (g *Grid) cellFor(p Point) gridCell {
	return gridCell{
		x: CellIndex(p.X, g.cell),
		y: CellIndex(p.Y, g.cell),
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

// grow extends the window to cover c — and half the window's extent again
// beyond it on each side it had to move, so a population spreading outwards
// lays the window out again only O(log) times — if the population affords
// that many cells. It reports whether it did.
func (g *Grid) grow(c gridCell) bool {
	x0, y0, x1, y1 := c.x, c.y, c.x, c.y
	if g.w > 0 {
		x0, y0, x1, y1 = g.x0, g.y0, g.x0+g.w-1, g.y0+g.h-1
		switch {
		case c.x < x0:
			x0 = c.x - g.w/2
		case c.x > x1:
			x1 = c.x + g.w/2
		}
		switch {
		case c.y < y0:
			y0 = c.y - g.h/2
		case c.y > y1:
			y1 = c.y + g.h/2
		}
	}
	// In floats: clamped cells are up to 2⁶³ apart.
	w, h := float64(x1)-float64(x0)+1, float64(y1)-float64(y0)+1
	if w*h > float64(windowFloor+windowPerID*g.n) {
		return false
	}
	g.rewindow(x0, y0, x1-x0+1, y1-y0+1)
	return true
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
// changed. Moving an absent id inserts it.
func (g *Grid) Move(id int, p Point) {
	for id >= len(g.slots) {
		g.slots = append(g.slots, gridSlot{bucket: -1})
	}
	c := g.cellFor(p)
	b := g.bucketOf(c)
	if s := g.slots[id]; s.bucket < 0 {
		g.n++
	} else if int(s.bucket) == b {
		g.buckets[b][s.i].p = p
		return
	} else {
		g.take(s)
	}
	if b == len(g.buckets)-1 && g.grow(c) {
		b = g.bucketOf(c)
	}
	g.put(gridEntry{id: id, p: p}, b)
}

// Remove deletes id from the index. Removing an absent id is a no-op.
func (g *Grid) Remove(id int) {
	if id < 0 || id >= len(g.slots) || g.slots[id].bucket < 0 {
		return
	}
	g.take(g.slots[id])
	g.slots[id].bucket = -1
	g.n--
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
