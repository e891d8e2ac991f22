// Package fault is the seeded fault-schedule engine: it compiles a
// declarative fault plan — node crashes with optional cold restarts,
// Gilbert-Elliott bursty per-receiver loss, and a regional jammer window —
// into concrete, deterministic kernel events. Everything the engine decides
// (who crashes, when, for how long, and every loss-chain transition) is
// drawn from streams of their own (sim.PurposeFault, sim.PurposeChannel),
// never from a node's, so a schedule is a pure function of (seed, plan) and is
// identical across -workers. An empty (or nil) plan is
// trace-neutral by construction: no model installed, no event scheduled,
// no draw made — docs/CONTRACTS.md "Fault determinism" is the contract,
// internal/experiment's golden gates the proof.
package fault

import (
	"fmt"
	"math"
	"time"

	"dapes/internal/sim"
)

// Loss-model names accepted by Plan.LossModel.
const (
	// LossIID selects the medium's retained i.i.d. reference (Config.LossRate);
	// it installs nothing and is equivalent to leaving LossModel empty.
	LossIID = "iid"
	// LossGilbertElliott selects the bursty two-state per-receiver chain.
	LossGilbertElliott = "gilbert-elliott"
)

// Plan is the declarative fault plan. The zero value injects nothing.
type Plan struct {
	// CrashFrac is the fraction of fault-eligible peers (a scenario's
	// downloaders and protocol-aware intermediates; never the producer,
	// whose storage is the collection's only durable origin) crashed once
	// each, at a time drawn uniformly from [CrashFrom, CrashUntil).
	CrashFrac  float64
	CrashFrom  time.Duration
	CrashUntil time.Duration
	// Restart delay after the crash, drawn uniformly from
	// [RestartMin, RestartMax]. RestartMax == 0 means crashed nodes never
	// come back.
	RestartMin time.Duration
	RestartMax time.Duration

	// Jammer window: receptions completing inside the disk of radius
	// JamRadius around (JamX, JamY) during [JamFrom, JamUntil) are dropped.
	// JamRadius == 0 disables the jammer.
	JamX      float64
	JamY      float64
	JamRadius float64
	JamFrom   time.Duration
	JamUntil  time.Duration

	// Loss model selection ("", LossIID, or LossGilbertElliott) and the
	// Gilbert-Elliott parameters: per-state loss probabilities and
	// per-reception transition probabilities.
	LossModel string
	PGood     float64
	PBad      float64
	GoodToBad float64
	BadToGood float64
}

// HasCrashes reports whether the plan crashes any node.
func (p *Plan) HasCrashes() bool { return p != nil && p.CrashFrac > 0 }

// HasJam reports whether the plan includes a jammer window.
func (p *Plan) HasJam() bool { return p != nil && p.JamRadius > 0 && p.JamUntil > p.JamFrom }

// HasLoss reports whether the plan replaces the i.i.d. loss reference.
func (p *Plan) HasLoss() bool { return p != nil && p.LossModel == LossGilbertElliott }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate rejects plans the engine cannot compile deterministically.
// It never panics, whatever the field values (FuzzFaultPlan pins that).
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"crash_frac", p.CrashFrac},
		{"jam_x", p.JamX}, {"jam_y", p.JamY}, {"jam_radius", p.JamRadius},
		{"loss_p_good", p.PGood}, {"loss_p_bad", p.PBad},
		{"loss_good_to_bad", p.GoodToBad}, {"loss_bad_to_good", p.BadToGood},
	} {
		if !finite(f.v) {
			return fmt.Errorf("fault: %s must be finite, got %v", f.name, f.v)
		}
	}
	if p.CrashFrac < 0 || p.CrashFrac > 1 {
		return fmt.Errorf("fault: crash_frac must be in [0,1], got %v", p.CrashFrac)
	}
	if p.CrashFrom < 0 || p.CrashUntil < p.CrashFrom {
		return fmt.Errorf("fault: crash window [%v, %v) is invalid", p.CrashFrom, p.CrashUntil)
	}
	if p.HasCrashes() && p.CrashUntil == 0 {
		return fmt.Errorf("fault: crash_frac %v needs a crash window (crash_until > 0)", p.CrashFrac)
	}
	if p.RestartMin < 0 || p.RestartMax < 0 || (p.RestartMax > 0 && p.RestartMax < p.RestartMin) {
		return fmt.Errorf("fault: restart window [%v, %v] is invalid", p.RestartMin, p.RestartMax)
	}
	if p.JamRadius < 0 {
		return fmt.Errorf("fault: jam_radius must be >= 0, got %v", p.JamRadius)
	}
	if p.JamFrom < 0 || p.JamUntil < p.JamFrom {
		return fmt.Errorf("fault: jam window [%v, %v) is invalid", p.JamFrom, p.JamUntil)
	}
	switch p.LossModel {
	case "", LossIID:
	case LossGilbertElliott:
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"loss_p_good", p.PGood}, {"loss_p_bad", p.PBad},
			{"loss_good_to_bad", p.GoodToBad}, {"loss_bad_to_good", p.BadToGood},
		} {
			if f.v < 0 || f.v > 1 {
				return fmt.Errorf("fault: %s must be a probability in [0,1], got %v", f.name, f.v)
			}
		}
	default:
		return fmt.Errorf("fault: unknown loss_model %q (want %q or %q)", p.LossModel, LossIID, LossGilbertElliott)
	}
	return nil
}

// Crash is one compiled crash event: victim Node (an index into the
// caller's fault-eligible peer list, in world build order), the crash
// time, and the restart time (zero when the node never comes back).
type Crash struct {
	Node      int
	At        time.Duration
	RestartAt time.Duration
}

// Schedule is a compiled plan for one trial.
type Schedule struct {
	Crashes []Crash
}

// Compile turns the plan into the trial's concrete crash schedule for n
// fault-eligible nodes. The result is a pure function of
// (trialSeed, plan, n): victims come from a seeded permutation and every
// time from the same fault stream, so the schedule is identical however the
// trial is parallelized. Callers install the events on each victim's home
// kernel in slice order (the slice is sorted by Node, i.e. build order).
func (p *Plan) Compile(trialSeed int64, n int) Schedule {
	if !p.HasCrashes() || n == 0 {
		return Schedule{}
	}
	rng := sim.NewStream(trialSeed, 0, sim.PurposeFault)
	k := int(p.CrashFrac*float64(n) + 0.5)
	if k > n {
		k = n
	}
	victims := rng.Perm(n)[:k]
	crashes := make([]Crash, 0, k)
	for _, v := range victims {
		at := p.CrashFrom + time.Duration(rng.Float64()*float64(p.CrashUntil-p.CrashFrom))
		ev := Crash{Node: v, At: at}
		if p.RestartMax > 0 {
			ev.RestartAt = at + p.RestartMin + time.Duration(rng.Float64()*float64(p.RestartMax-p.RestartMin))
		}
		crashes = append(crashes, ev)
	}
	// Build-order installation: stable regardless of the permutation's
	// internal order.
	for i := 1; i < len(crashes); i++ {
		for j := i; j > 0 && crashes[j-1].Node > crashes[j].Node; j-- {
			crashes[j-1], crashes[j] = crashes[j], crashes[j-1]
		}
	}
	return Schedule{Crashes: crashes}
}
