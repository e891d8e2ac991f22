package phy

import (
	"math"
	"testing"

	"dapes/internal/sim"
)

// TestGilbertElliottStationaryBehaviour holds the chain to the closed forms
// of the two-state erasure channel (Garone et al., "TCP-like erasure
// channels"; PAPERS.md): with p = GoodToBad and r = BadToGood, the bad-state
// fraction is p/(p+r), the mean burst (bad sojourn) length 1/r, and the
// overall loss the stationary mix of the two states' loss probabilities —
// each within 1% over 10^6 receptions at one receiver. The generator is
// checked against theory here, not against a previous generator's digits.
func TestGilbertElliottStationaryBehaviour(t *testing.T) {
	t.Parallel()
	const steps = 1_000_000
	for _, cfg := range []GEConfig{
		{PGood: 0.05, PBad: 0.4, GoodToBad: 0.1, BadToGood: 0.3}, // the chaos plans' channel
		{PGood: 0, PBad: 1, GoodToBad: 0.02, BadToGood: 0.25},    // the classic Gilbert channel: sure outcomes, no coin
	} {
		const id = 7
		g := NewGilbertElliott(cfg, 11)
		coin := sim.NewStream(11, id, sim.PurposeReception)
		var bad, lost, bursts, burstLen int
		wasBad := false
		for i := 0; i < steps; i++ {
			if g.Drop(id, &coin) {
				lost++
			}
			if g.states[id].bad {
				bad++
				burstLen++
				if !wasBad {
					bursts++
				}
			}
			wasBad = g.states[id].bad
		}
		p, r := cfg.GoodToBad, cfg.BadToGood
		piBad := p / (p + r)
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"bad-state fraction", float64(bad) / steps, piBad},
			{"mean burst length", float64(burstLen) / float64(bursts), 1 / r},
			{"overall loss", float64(lost) / steps, (1-piBad)*cfg.PGood + piBad*cfg.PBad},
		} {
			if math.Abs(c.got-c.want) > 0.01*c.want {
				t.Errorf("%+v: %s = %.5f, closed form %.5f: off by more than 1%%", cfg, c.what, c.got, c.want)
			}
		}
	}
}

// TestGilbertElliottEqualStatesMatchIID: with PGood == PBad == LossRate the
// model draws from the receiver's coin exactly what the i.i.d. reference
// draws — one Float64 per reception, compared against the same rate — so the
// two decide every reception alike, whatever the chain does underneath.
func TestGilbertElliottEqualStatesMatchIID(t *testing.T) {
	t.Parallel()
	const rate = 0.1
	g := NewGilbertElliott(GEConfig{PGood: rate, PBad: rate, GoodToBad: 0.1, BadToGood: 0.3}, 5)
	for id := 0; id < 4; id++ {
		coin := sim.NewStream(5, id, sim.PurposeReception)
		ref := coin
		for i := 0; i < 10_000; i++ {
			if got, want := g.Drop(id, &coin), ref.Float64() < rate; got != want {
				t.Fatalf("receiver %d, reception %d: model dropped %v, i.i.d. reference %v", id, i, got, want)
			}
		}
		if coin != ref {
			t.Fatalf("receiver %d: the model drew from the coin a different number of times than the reference", id)
		}
	}
}

// TestGilbertElliottChainsAreDistinct: every (seed, receiver) pair steps its
// own chain. The additive seed this replaced, seed + id*1_000_003 + 1, gave
// (seed, id+1) and (seed+1_000_003, id) the same chain.
func TestGilbertElliottChainsAreDistinct(t *testing.T) {
	t.Parallel()
	cfg := GEConfig{PGood: 0, PBad: 1, GoodToBad: 0.3, BadToGood: 0.3}
	trace := func(seed int64, id int) (bits [4]uint64) {
		g := NewGilbertElliott(cfg, seed)
		var coin sim.Stream // never drawn from: both outcomes are sure
		for i := 0; i < 256; i++ {
			if g.Drop(id, &coin) {
				bits[i/64] |= 1 << (i % 64)
			}
		}
		return bits
	}
	base := trace(3, 8)
	for _, c := range []struct {
		seed int64
		id   int
	}{{3 + 1_000_003, 7}, {3, 9}, {4, 8}} {
		if trace(c.seed, c.id) == base {
			t.Errorf("(seed %d, receiver %d) steps the same chain as (seed 3, receiver 8)", c.seed, c.id)
		}
	}
	if trace(3, 8) != base {
		t.Error("the same (seed, receiver) stepped two different chains")
	}
}
