package experiment

import (
	"time"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// Engine names the implementations a trial's kernels and mediums are built
// from. The zero value is the production engine: timer wheel, grid index,
// the scenario's own stripe count, parallel batched windows. Every other
// value selects a retained reference the golden suites hold production
// byte-identical to, so the choice moves wall-clock, never a result.
//
// It rides on Scale (Scale.Engine) and is consumed in exactly one place,
// newWorld; there is no package-level engine state to flip, so a trial is
// a function of its arguments and trials with different engines may run
// concurrently (docs/CONTRACTS.md, "Engine selection").
type Engine struct {
	// Queue is every kernel's pending-event store; sim.QueueHeap is the
	// reference.
	Queue sim.QueueKind
	// Index is every medium's receiver lookup; phy.IndexNaive is the
	// reference.
	Index phy.IndexMode
	// Sequential runs the trial on the one sequential sim.Kernel — the
	// reference a one-stripe partition must reproduce — whatever stripe
	// count the scale or the scenario asks for.
	Sequential bool
	// SerialWindows and Windowing choose the sharded kernel's window
	// execution and sizing references (sim.Options); a sequential trial
	// ignores both.
	SerialWindows bool
	Windowing     sim.WindowingMode

	// built, when set, collects every world newWorld builds from this
	// value, so an equivalence test can read back — from the kernels and
	// mediums themselves — that a trial ran on the engine it asked for.
	// Appended to without locking: run the trials on one goroutine.
	built *[]*world
}

// trialKernel is what a built world needs of its engine; the sequential and
// the sharded kernel both provide it.
type trialKernel interface {
	Now() time.Duration
	Run(horizon time.Duration) error
	RunUntil(horizon time.Duration, cond func() bool) bool
	EventsFired() uint64
}

// striping asks newWorld to cut the arena into vertical stripes, one kernel
// and medium each. The zero value asks for the one sequential kernel.
type striping struct {
	// n is the requested stripe count; 0 is the sequential kernel, 1 the
	// sharded machinery on a single stripe (byte-identical to sequential).
	n int
	// lookahead is the window length; non-positive selects the conservative
	// bound (phy.Config.ConservativeLookahead), under which no in-flight
	// frame can span a window edge.
	lookahead time.Duration
	// nodes is the placement being partitioned: its arena width bounds the
	// stripe count and its t=0 positions balance the cuts.
	nodes *placement
}

// world is one trial's engine: every kernel and medium of the trial, behind
// the surface a driver needs. It is the only place in this package that
// constructs either.
type world struct {
	// trialKernel (Now, Run, RunUntil, EventsFired) is the one kernel, or
	// the sharded coordinator; medium the one medium, or the sharded sum.
	trialKernel
	medium interface{ Stats() phy.Stats }
	sk     *sim.ShardedKernel // nil on the sequential kernel
	// kernels and mediums are indexed by stripe (a single entry on the
	// sequential kernel); stripes maps a t=0 position to its index.
	kernels []*sim.Kernel
	mediums []*phy.Medium
	stripes geo.Stripes
}

// newWorld builds the engine for one trial: seed is the trial's, which every
// kernel of the world carries and every node's random streams derive from
// (sim.Kernel.Stream — the same stream on any stripe), cfg's Range and
// LossRate describe the channel, e picks the implementations, st the
// partition.
//
// The stripe count is bounded by the arena's range-wide column count:
// stripes are whole columns, so any beyond that own no ground and would
// idle forever while the coordinator still paid for them every window
// (and S² handoff rows at construction).
func newWorld(seed int64, cfg phy.Config, e Engine, st striping) *world {
	cfg.Index = e.Index
	opts := sim.Options{Queue: e.Queue, SerialWindows: e.SerialWindows, Windowing: e.Windowing}
	if e.Sequential || st.n <= 0 {
		k := opts.NewKernel(seed)
		m := phy.NewMedium(k, cfg)
		return e.record(&world{trialKernel: k, medium: m, kernels: []*sim.Kernel{k}, mediums: []*phy.Medium{m}})
	}
	n := st.n
	if cols := geo.StripeCells(cfg.Range, st.nodes.side); int64(n) > cols {
		n = int(cols)
	}
	if st.lookahead <= 0 {
		st.lookahead = cfg.ConservativeLookahead()
	}
	sk := opts.NewShardedKernel(seed, n, st.lookahead)
	sm := phy.NewShardedMedium(sk, cfg)
	w := &world{trialKernel: sk, medium: sm, sk: sk,
		// Density-balanced cuts from the t=0 position CDF: each stripe
		// begins with an equal share of the population instead of an equal
		// share of the area — a hotspot stripe would otherwise gate every
		// window for all its siblings. One stripe is the trivial partition.
		stripes: geo.BalancedStripes(cfg.Range, st.nodes.side, n, st.nodes.startXs())}
	for i := 0; i < n; i++ {
		w.kernels = append(w.kernels, sk.Shard(i))
		w.mediums = append(w.mediums, sm.Medium(i))
	}
	return e.record(w)
}

func (e Engine) record(w *world) *world {
	if e.built != nil {
		*e.built = append(*e.built, w)
	}
	return w
}

// site returns the kernel and medium hosting a node: those of the stripe
// holding its t=0 position. Ownership decides which kernel runs the node's
// events, not who hears it — a walker that wanders across a stripe boundary
// keeps its home and reaches its new neighbors through the cross-shard
// handoff path.
func (w *world) site(m geo.Mobility) (*sim.Kernel, *phy.Medium) {
	h := 0
	if len(w.kernels) > 1 {
		h = w.stripes.Of(m.PositionAt(0))
	}
	return w.kernels[h], w.mediums[h]
}

// Stats sums the medium counters over every stripe.
func (w *world) Stats() phy.Stats { return w.medium.Stats() }

// Close releases the sharded kernel's worker goroutines; a no-op on the
// sequential kernel. Idempotent.
func (w *world) Close() {
	if w.sk != nil {
		w.sk.Close()
	}
}
