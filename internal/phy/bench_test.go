package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// benchWorld builds a medium with n random-direction walkers at a constant
// node density (the area grows with n), so the naive scan's per-broadcast
// cost grows with n while the true neighbor count stays flat — the regime
// the urban-grid scenarios live in. The area does not depend on the radio range
// r, so the grid's cells per node go as (45/r)².
func benchWorld(n int, mode IndexMode, r float64) (*sim.Kernel, *Medium) {
	k := sim.NewKernel(42)
	m := NewMedium(k, Config{Range: r, Index: mode})
	side := math.Sqrt(float64(n)) * 45 // ~5.6 expected neighbors at range 60
	area := geo.Rect{Width: side, Height: side}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		m.Attach(geo.NewRandomDirection(geo.RandomDirectionConfig{
			Area:  area,
			Start: geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
			RNG:   rand.New(rand.NewSource(int64(i + 1))),
		}))
	}
	return k, m
}

// BenchmarkBroadcastDense measures one full broadcast — receiver lookup,
// reception scheduling, and delivery — at growing node counts for the naive
// scan versus the grid index. This is the medium's hot path: the grid entry
// must stay ≥5× below the naive scan at N=1000 (see docs/PERFORMANCE.md for
// recorded numbers). Up to N=1000 the whole world stays in cache, which the
// 50k-node metro trials do not: grid/N=50000 is that density with successive
// senders a prime stride apart, so each broadcast finds its cells, radios and
// walkers cold — the regime where a candidate costs a cache miss, not a
// multiplication. grid-range20 is the same world at the paper's shortest
// range: 5 grid cells per node instead of 0.56, the thinnest the index is
// asked to hold, where a window too small for it would have every query scan
// the stragglers.
func BenchmarkBroadcastDense(b *testing.B) {
	payload := make([]byte, 256)
	for _, c := range []struct {
		name   string
		mode   IndexMode
		n      int
		stride int
		rangeM float64
	}{
		{"naive", IndexNaive, 50, 1, 60},
		{"naive", IndexNaive, 250, 1, 60},
		{"naive", IndexNaive, 1000, 1, 60},
		{"grid", IndexGrid, 50, 1, 60},
		{"grid", IndexGrid, 250, 1, 60},
		{"grid", IndexGrid, 1000, 1, 60},
		{"grid", IndexGrid, 50000, 7919, 60},
		{"grid-range20", IndexGrid, 50000, 7919, 20},
	} {
		b.Run(fmt.Sprintf("%s/N=%d", c.name, c.n), func(b *testing.B) {
			k, m := benchWorld(c.n, c.mode, c.rangeM)
			radios := m.Radios()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Broadcast(radios[i*c.stride%c.n], payload)
				k.Run(0)
			}
		})
	}
}

// BenchmarkNeighborsDense isolates the pure lookup (no event scheduling).
func BenchmarkNeighborsDense(b *testing.B) {
	for _, impl := range []struct {
		name string
		mode IndexMode
	}{
		{"naive", IndexNaive},
		{"grid", IndexGrid},
	} {
		for _, n := range []int{50, 1000} {
			b.Run(fmt.Sprintf("%s/N=%d", impl.name, n), func(b *testing.B) {
				_, m := benchWorld(n, impl.mode, 60)
				radios := m.Radios()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Neighbors(radios[i%n])
				}
			})
		}
	}
}
