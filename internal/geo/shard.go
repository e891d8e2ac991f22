package geo

import (
	"math"
	"sort"
)

// Shard assignment for space-partitioned simulation: the world is cut into
// n vertical stripes of whole grid cells, so a shard boundary is always a
// cell boundary and a node's shard follows directly from the same floor
// arithmetic that buckets it in a Grid. Stripes (rather than a 2D tiling)
// keep the boundary surface — and therefore cross-shard handoff volume —
// proportional to one world edge per extra shard, which is the right shape
// for the roughly uniform node densities the experiment scenarios use.

// ShardOf maps a position to a shard in [0, n): vertical stripes of whole
// cells of edge cellSize covering [0, width) on the X axis, partitioned
// proportionally (stripe widths differ by at most one cell, and every
// stripe is non-empty whenever n ≤ cell count — a ceil-width split would
// leave tail shards permanently idle). Positions outside [0, width) clamp
// to the nearest stripe, so wandering mobility models keep a valid home.
// n < 2 always maps to shard 0. It panics on a non-positive cell size,
// mirroring NewGrid.
func ShardOf(p Point, cellSize, width float64, n int) int {
	if !(cellSize > 0) {
		panic("geo: ShardOf requires a positive cell size")
	}
	if n < 2 {
		return 0
	}
	cells := StripeCells(cellSize, width)
	cx := cellCoord(math.Floor(p.X / cellSize))
	if cx < 0 {
		cx = 0
	}
	if cx >= cells {
		cx = cells - 1
	}
	var s int
	if cells <= math.MaxInt64/int64(n) {
		s = int(cx * int64(n) / cells)
	} else {
		// Astronomically wide world: the proportional product would
		// overflow; equal stripes of floor(cells/n) cells are near-exact at
		// this scale.
		s = int(cx / (cells / int64(n)))
	}
	if s >= n {
		s = n - 1
	}
	return s
}

// Stripes is a reusable vertical-stripe partition of [0, width) on the X
// axis into n shards. Every cut sits on a grid-cell boundary (cells of
// edge cellSize, the same floor arithmetic as Grid via CellIndex), so a
// node's stripe follows from its cell column and a stripe edge is never
// mid-cell. Construct with UniformStripes — which reproduces ShardOf
// exactly and is the executable reference — or BalancedStripes, which
// places the cuts on the t=0 position CDF so each stripe starts with an
// equal node count instead of an equal width. The zero value maps
// everything to stripe 0.
type Stripes struct {
	cell  float64
	cells int64   // cell columns covering [0, width), ≥ 1
	cuts  []int64 // interior cut columns, non-decreasing; stripe = #cuts ≤ cx
	n     int
}

// StripeCells returns the column count ShardOf partitions: whole cells of
// edge cellSize covering [0, width), at least one. A partition into more
// stripes than this leaves the surplus permanently empty.
func StripeCells(cellSize, width float64) int64 {
	cells := cellCoord(math.Ceil(width / cellSize))
	if cells < 1 {
		cells = 1
	}
	return cells
}

// UniformStripes returns the equal-width partition: Of agrees with
// ShardOf(p, cellSize, width, n) for every position, including the
// clamping of positions outside [0, width) and the astronomically-wide
// overflow fallback. It panics on a non-positive cell size, mirroring
// ShardOf.
func UniformStripes(cellSize, width float64, n int) Stripes {
	if !(cellSize > 0) {
		panic("geo: UniformStripes requires a positive cell size")
	}
	st := Stripes{cell: cellSize, cells: StripeCells(cellSize, width), n: n}
	if n < 2 {
		return st
	}
	st.cuts = make([]int64, 0, n-1)
	for s := int64(1); s < int64(n); s++ {
		var cut int64
		if st.cells <= math.MaxInt64/int64(n) {
			// Smallest column cx with cx·n/cells == s, i.e. ceil(s·cells/n):
			// counting cuts ≤ cx then reproduces ShardOf's proportional
			// floor division exactly, duplicate cuts (n > columns) included.
			cut = (s*st.cells + int64(n) - 1) / int64(n)
		} else {
			cut = s * (st.cells / int64(n))
		}
		st.cuts = append(st.cuts, cut)
	}
	return st
}

// BalancedStripes returns a density-balanced partition: the n-quantiles of
// the given t=0 X positions, snapped to cell boundaries, become the cuts,
// so each stripe starts the simulation with an (as near as cell
// granularity allows) equal share of the nodes and no hotspot stripe gates
// every window. Cuts are forced strictly increasing within [1, cells-1],
// falling back toward the uniform shape when a hotspot column would
// swallow several quantiles; with no positions at all the result IS the
// uniform partition. The input slice is not modified. Panics on a
// non-positive cell size.
func BalancedStripes(cellSize, width float64, n int, xs []float64) Stripes {
	if !(cellSize > 0) {
		panic("geo: BalancedStripes requires a positive cell size")
	}
	if n < 2 || len(xs) == 0 || StripeCells(cellSize, width) < int64(n) {
		// No positions to balance on, or fewer columns than stripes (where
		// strictly increasing cuts cannot exist): the uniform shape is the
		// only sensible partition.
		return UniformStripes(cellSize, width, n)
	}
	st := Stripes{cell: cellSize, cells: StripeCells(cellSize, width), n: n}
	cols := make([]int64, len(xs))
	for i, x := range xs {
		cx := CellIndex(x, cellSize)
		if cx < 0 {
			cx = 0
		}
		if cx >= st.cells {
			cx = st.cells - 1
		}
		cols[i] = cx
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i] < cols[j] })
	st.cuts = make([]int64, 0, n-1)
	prev := int64(0)
	for s := 1; s < n; s++ {
		// The s-th n-quantile node's column; cutting just above it puts
		// ~s/n of the nodes strictly left of the cut.
		cut := cols[len(cols)*s/n] + 1
		if cut <= prev {
			cut = prev + 1 // hotspot column: keep cuts strictly increasing
		}
		if max := st.cells - int64(n-s); cut > max {
			cut = max // leave at least one column for every stripe right of us
		}
		st.cuts = append(st.cuts, cut)
		prev = cut
	}
	return st
}

// N returns the stripe count (1 for the zero value).
func (st Stripes) N() int {
	if st.n < 2 {
		return 1
	}
	return st.n
}

// Of maps a position to its stripe in [0, N()). Positions outside
// [0, width) clamp to the nearest stripe, exactly like ShardOf, so
// wandering mobility models keep a valid home.
func (st Stripes) Of(p Point) int {
	if st.n < 2 {
		return 0
	}
	cx := CellIndex(p.X, st.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= st.cells {
		cx = st.cells - 1
	}
	return sort.Search(len(st.cuts), func(i int) bool { return st.cuts[i] > cx })
}

// Cuts returns the interior stripe boundaries in meters (ascending,
// N()-1 entries, each a multiple of the cell size). The slice is a copy.
func (st Stripes) Cuts() []float64 {
	out := make([]float64, len(st.cuts))
	for i, c := range st.cuts {
		out[i] = float64(c) * st.cell
	}
	return out
}
