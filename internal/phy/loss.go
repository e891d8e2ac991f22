package phy

import (
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// This file is the fault layer's frame loss: a GilbertElliott model
// replaces the medium's built-in i.i.d. coin flip for receptions that
// survived the collision check, and a Jammer blacks out a disk of the arena
// for an interval. Both hook into Medium.complete at exactly the point the
// i.i.d. reference draws, so a model that reproduces the reference's draws
// from the receiver's coin is byte-identical to it — the golden gate in
// internal/experiment pins that for GilbertElliott with pGood==pBad.

// GEConfig parameterizes a Gilbert-Elliott channel: a two-state Markov
// chain per receiver with loss probability PGood in the good state and
// PBad in the bad state, stepping once per reception with transition
// probabilities GoodToBad / BadToGood.
type GEConfig struct {
	PGood     float64
	PBad      float64
	GoodToBad float64
	BadToGood float64
}

// GilbertElliott is the bursty per-receiver loss model. The chain steps
// from a dedicated per-receiver stream, sim.NewStream(seed, radio identity,
// sim.PurposeChannel), so the receiver's coin sees exactly one draw per
// reception (when the current state's loss probability is positive) —
// with PGood==PBad==LossRate that is the i.i.d. reference's draw pattern,
// making the two byte-identical.
type GilbertElliott struct {
	cfg    GEConfig
	seed   int64
	states map[int]*geState
}

type geState struct {
	bad bool
	rng sim.Stream
}

// NewGilbertElliott builds a model instance; seed — the trial's — fixes
// every receiver's chain (state evolution is a pure function of (seed,
// radio identity, reception count)).
func NewGilbertElliott(cfg GEConfig, seed int64) *GilbertElliott {
	return &GilbertElliott{cfg: cfg, seed: seed, states: make(map[int]*geState)}
}

// Drop decides whether one reception that already survived the collision
// check is dropped at the radio id, whose per-reception loss stream
// (sim.PurposeReception) is coin, the one the i.i.d. reference draws from.
// It steps the receiver's chain from the chain's own stream and then draws
// once from coin, only when the state's loss probability is neither 0 nor
// 1: a draw on a sure outcome would shift the receiver's later draws and
// break trace equivalences.
func (g *GilbertElliott) Drop(id int, coin *sim.Stream) bool {
	st := g.states[id]
	if st == nil {
		st = &geState{rng: sim.NewStream(g.seed, id, sim.PurposeChannel)}
		g.states[id] = st
	}
	if st.bad {
		if g.cfg.BadToGood > 0 && st.rng.Float64() < g.cfg.BadToGood {
			st.bad = false
		}
	} else {
		if g.cfg.GoodToBad > 0 && st.rng.Float64() < g.cfg.GoodToBad {
			st.bad = true
		}
	}
	p := g.cfg.PGood
	if st.bad {
		p = g.cfg.PBad
	}
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return coin.Float64() < p
}

// Jammer blacks out a disk of the arena for an interval: any reception
// completing inside the disk during [From, Until) is dropped (counted in
// Stats.Jammed). The check is a pure function of receiver position and
// virtual time — no RNG draw — so a jammer is trace-neutral outside its
// window and identical across worker counts.
type Jammer struct {
	Center geo.Point
	Radius float64
	From   time.Duration
	Until  time.Duration
}

// Blocks reports whether a reception at p completing at time at falls
// inside the jammed disk and window.
func (j *Jammer) Blocks(p geo.Point, at time.Duration) bool {
	return at >= j.From && at < j.Until && p.Distance(j.Center) <= j.Radius
}

// SetLossModel installs a Gilbert-Elliott model that replaces the built-in
// i.i.d. Config.LossRate draw for this medium's receivers. Install before
// the first broadcast.
func (m *Medium) SetLossModel(l *GilbertElliott) { m.loss = l }

// SetJammer installs a regional jammer window checked before the loss
// draw. nil (the default) leaves the path untouched.
func (m *Medium) SetJammer(j *Jammer) { m.jam = j }
