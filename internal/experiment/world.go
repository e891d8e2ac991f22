package experiment

import (
	"time"

	"dapes/internal/phy"
	"dapes/internal/sim"
)

// Engine names the implementations a trial's kernel and medium are built
// from. The zero value is the production engine: timer wheel, grid index.
// Every other value selects a retained reference the golden suites hold
// production byte-identical to, so the choice moves wall-clock, never a
// result.
//
// It rides on Scale (Scale.Engine) and is consumed in exactly one place,
// newWorld; there is no package-level engine state to flip, so a trial is
// a function of its arguments and trials with different engines may run
// concurrently (docs/CONTRACTS.md, "Engine selection").
type Engine struct {
	// Queue is the kernel's pending-event store; sim.QueueHeap is the
	// reference.
	Queue sim.QueueKind
	// Index is the medium's receiver lookup; phy.IndexNaive is the
	// reference.
	Index phy.IndexMode

	// built, when set, collects every world newWorld builds from this
	// value, so an equivalence test can read back — from the kernel and
	// medium themselves — that a trial ran on the engine it asked for.
	// Appended to without locking: run the trials on one goroutine.
	built *[]*world
}

// world is one trial's engine: the one kernel (embedded: Now, Run,
// RunUntil, EventsFired), the one medium every node attaches to, and the
// trial's virtual time limit. It is the only place in this package that
// constructs a kernel or a medium, and its runUntilDone is the one place
// that runs a kernel.
type world struct {
	*sim.Kernel
	medium *phy.Medium
	// horizon is where runUntilDone stops at the latest and where the
	// completion fold censors a downloader that never finished.
	horizon time.Duration
}

// newWorld builds the engine for one trial: seed is the trial's, which the
// kernel carries and every node's random streams derive from
// (sim.Kernel.Stream), cfg's Range and LossRate describe the channel, e
// picks the implementations, and horizon bounds the run.
func newWorld(seed int64, cfg phy.Config, e Engine, horizon time.Duration) *world {
	cfg.Index = e.Index
	k := sim.Options{Queue: e.Queue}.NewKernel(seed)
	w := &world{Kernel: k, medium: phy.NewMedium(k, cfg), horizon: horizon}
	if e.built != nil {
		*e.built = append(*e.built, w)
	}
	return w
}

// Stats returns the medium counters.
func (w *world) Stats() phy.Stats { return w.medium.Stats() }
