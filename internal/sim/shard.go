package sim

// Space-partitioned parallel execution: a ShardedKernel composes S
// per-shard Kernels (each with its own wheel and clock) and
// advances them in conservative lookahead windows. Within a window the
// shards share no mutable state — cross-shard effects are staged through
// SendFrom into per-(from,to) handoff slices (or through a typed barrier
// merge hook, see SetBarrierMerge) and merged at the window barrier in a
// fixed order — so running the busy shards serially or on one worker
// goroutine each produces byte-identical simulations. That
// serial==parallel identity is the package's correctness gate for sharded
// execution (enforced by TestShardedSerialMatchesParallel here and by the
// sharded golden-trace suite in internal/experiment).
//
// The lookahead window is the classic conservative-PDES bound: if no
// cross-shard effect can land earlier than `lookahead` after it is sent,
// then every event inside the window [T, T+lookahead) — where T is the
// global minimum next-event time — is safe to execute without hearing from
// other shards. For the wireless medium the bound is the air time of the
// smallest frame plus propagation delay (see phy.Config.ConservativeLookahead);
// scenarios may opt into a larger window, trading bounded extra latency on
// cross-shard deliveries for fewer barriers (the relaxation is documented
// in docs/PERFORMANCE.md).
//
// Three scheduler refinements ride on top of the basic lockstep loop, all
// deterministic functions of barrier-time state:
//
//   - Persistent workers. Parallel windows are executed by per-shard
//     worker goroutines that park on a channel receive between windows;
//     the coordinator publishes the window bound on each busy worker's
//     wake channel (the epoch publish), runs the lowest busy shard
//     inline, and waits for an atomic countdown to release the single
//     done channel. Workers are spawned lazily by the first parallel
//     window and released by Close. Options.SerialWindows retains the
//     no-goroutine execution as the executable reference.
//
//   - Boundary-aware window batching. When a window oracle is installed
//     (SetWindowOracle — phy.ShardedMedium installs one derived from
//     stripe-edge occupancy), the coordinator may extend a window past
//     T+lookahead up to the oracle's "quiet" bound: the earliest virtual
//     time at which any cross-shard effect could be generated. A window
//     that ends at or before the quiet bound contains no cross-shard
//     traffic by construction, so collapsing thousands of per-lookahead
//     barriers into one is trace-preserving. WindowLockstep retains the
//     one-lookahead-per-window scheduler as the executable reference
//     (Options.Windowing, like phy.IndexNaive / sim.QueueHeap).
//
//   - Adaptive inline execution. A parallel-mode window still runs on the
//     coordinator's goroutine when the worker barrier cannot pay for
//     itself: when the runtime has no parallelism to offer
//     (GOMAXPROCS==1), or when the previous window fired fewer than
//     workerWindowEvents events. Both inputs are independent of the
//     trace — execution mode never changes results (the serial==parallel
//     gate) — so the choice is free to depend on the host.
//
// Relaxed global-trace contract: a ShardedKernel with S>1 is NOT
// byte-identical to a single Kernel running the same scenario — event seq
// numbers are per-shard, and cross-shard effects land at barriers. (Random
// draws are not part of the relaxation: every shard kernel carries the trial
// seed, so Kernel.Stream hands a node the same stream on any shard.) With
// S==1 the sharded kernel constructs exactly one inner kernel and delegates
// Run/RunUntil to it directly, so a 1-shard run IS byte-identical to the
// sequential kernel; that is the executable bridge between the two
// contracts.

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Run on a ShardedKernel whose Close has been
// called (RunUntil reports false for the same reason).
var ErrClosed = errors.New("sim: Run on a closed ShardedKernel")

// WindowingMode selects how the coordinator sizes lookahead windows.
type WindowingMode int32

const (
	// WindowBatched extends windows past T+lookahead up to the installed
	// window oracle's quiet bound (no oracle installed means no extension,
	// which degenerates to lockstep). The default.
	WindowBatched WindowingMode = iota
	// WindowLockstep runs exactly one lookahead per window — the
	// executable reference WindowBatched must reproduce
	// (TestWindowBatchingMatchesLockstep).
	WindowLockstep
)

// handoff is one cross-shard effect staged for merge at the next barrier.
type handoff struct {
	at time.Duration
	fn func()
}

// stagedFlag is a cache-line-padded dirty bit. Shard i writes only
// staged[i] during a window (its own line), so flagging handoffs from
// parallel workers is race- and false-sharing-free; the coordinator reads
// and clears all S flags at the barrier.
type stagedFlag struct {
	v bool
	_ [63]byte
}

// ShardedKernel runs S per-shard kernels in conservative lockstep windows
// behind the same Run/RunUntil surface as Kernel. Construct with
// NewShardedKernel; the zero value is not usable. A kernel that executed
// parallel windows owns worker goroutines: call Close when done with it
// (Close is idempotent; Run after Close returns ErrClosed).
//
// ShardedKernel is not safe for concurrent use: Run, RunUntil, SendFrom
// (outside windows), and Close must all be called from the coordinating
// goroutine. Within a window, shard code runs on per-shard workers and
// must touch only its own shard's state plus SendFrom's own-row staging.
type ShardedKernel struct {
	shards    []*Kernel
	lookahead time.Duration
	opts      Options

	// out[from][to] stages handoffs sent by shard `from` to shard `to`
	// during the current window. Shard workers write only their own `from`
	// row, which is what makes window execution race-free without locks;
	// the coordinator merges all rows at the barrier in (from, to) order
	// so the merge itself is deterministic.
	out    [][][]handoff
	staged []stagedFlag // staged[from]: out[from] has unmerged handoffs
	busy   []int        // scratch: indices of shards with events in the window

	// merge (optional) runs at every barrier before the generic flush; phy
	// installs its typed handoff merge + boundary-mask publish here.
	merge func()
	// oracle (optional) reports the quiet bound for a window starting at
	// the given time; see SetWindowOracle.
	oracle func(start time.Duration) time.Duration

	// Persistent worker state. wake[i] (i ≥ 1) carries the window bound to
	// shard i's parked worker; workers count down pending and the last one
	// releases done. Spawned lazily by the first parallel window.
	wake    []chan time.Duration
	done    chan struct{}
	pending atomic.Int32
	winStop atomic.Bool
	closed  bool

	// adaptive (the default) lets the coordinator run a parallel-mode
	// window inline when the worker barrier cannot pay: when the runtime
	// has a single execution slot (multicore is false — workers would only
	// add context switches), or when the previous window executed fewer
	// than workerWindowEvents events (near-empty windows — the common case
	// at sub-metro scale, where a lookahead holds a handful of timers —
	// cost less on the caller's goroutine than one worker
	// publish/countdown round-trip). Neither input feeds back into the
	// simulation: execution mode never changes any result (that is the
	// serial==parallel gate), so the scheduler is free to consult the host.
	// Tests and benchmarks that measure a specific barrier mechanism clear
	// adaptive to force every window through it.
	adaptive        bool
	multicore       bool
	lastWindowFired uint64

	windowsRun uint64 // barriers crossed; observability for batching tests

	// Stopped-clock state: after a run ends via Stop, Now reports the
	// stopping shard's clock instead of the max.
	stopAt    time.Duration
	stopValid bool
}

// NewShardedKernel returns a production kernel (Options{}) of `shards`
// spatial shards advancing in windows of `lookahead`.
func NewShardedKernel(seed int64, shards int, lookahead time.Duration) *ShardedKernel {
	return Options{}.NewShardedKernel(seed, shards, lookahead)
}

// NewShardedKernel returns a kernel of `shards` spatial shards advancing
// in windows of `lookahead`, built from the implementations o selects.
// Every shard kernel carries seed, the trial's. shards < 1 is clamped to 1;
// lookahead < 1ns is clamped to 1ns (a window always makes progress
// because it starts at the global minimum event time and event times are
// whole nanoseconds).
func (o Options) NewShardedKernel(seed int64, shards int, lookahead time.Duration) *ShardedKernel {
	if shards < 1 {
		shards = 1
	}
	if lookahead < 1 {
		lookahead = 1
	}
	sk := &ShardedKernel{
		shards:    make([]*Kernel, shards),
		lookahead: lookahead,
		opts:      o,
		adaptive:  true,
		multicore: runtime.GOMAXPROCS(0) > 1,
		out:       make([][][]handoff, shards),
		staged:    make([]stagedFlag, shards),
		busy:      make([]int, 0, shards),
	}
	for i := range sk.shards {
		sk.shards[i] = o.NewKernel(seed)
		sk.out[i] = make([][]handoff, shards)
	}
	return sk
}

// Options reports the implementations the kernel was built from.
func (sk *ShardedKernel) Options() Options { return sk.opts }

// Shards returns the shard count.
func (sk *ShardedKernel) Shards() int { return len(sk.shards) }

// Shard returns shard i's kernel. Model code owned by shard i schedules on
// this kernel only; effects targeting another shard go through SendFrom.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i] }

// Lookahead returns the conservative window length.
func (sk *ShardedKernel) Lookahead() time.Duration { return sk.lookahead }

// Windows returns the number of window barriers crossed so far. Batching
// effectiveness is directly observable here: an oracle-extended run
// crosses fewer barriers than the lockstep reference for the same trace.
func (sk *ShardedKernel) Windows() uint64 { return sk.windowsRun }

// SetBarrierMerge installs fn to run at every window barrier (and at run
// entry), before the generic SendFrom flush, with all shard clocks
// advanced to the barrier. The phy layer merges its typed cross-shard
// handoffs and republishes stripe-boundary occupancy here. fn must be
// deterministic given barrier-time state and must be cheap when nothing
// was staged — it runs even for silent barriers.
func (sk *ShardedKernel) SetBarrierMerge(fn func()) { sk.merge = fn }

// SetWindowOracle installs the boundary oracle consulted by the batched
// window scheduler. oracle(start) must return a conservative "quiet"
// bound: a virtual time q ≥ start such that no event strictly before q
// can stage a cross-shard effect (q == start claims nothing and disables
// extension for that window). When q exceeds start+lookahead the window is
// extended to end exactly at q, so the extended window provably contains
// no cross-shard traffic and the collapse of the intermediate barriers is
// trace-preserving. Installing an oracle asserts that ALL cross-shard
// traffic is covered by its bound — including generic SendFrom use, not
// just the installer's own.
func (sk *ShardedKernel) SetWindowOracle(fn func(start time.Duration) time.Duration) {
	sk.oracle = fn
}

// Now returns the global virtual clock: the latest shard clock, or, after
// a run ended via Stop, the stopping shard's clock (the earliest stop
// point when several shards stopped in the same window). At window
// barriers every shard sits on the same time, so between Run calls this
// matches Kernel's clock contract, including the stopped-clock rule.
func (sk *ShardedKernel) Now() time.Duration {
	if sk.stopValid {
		return sk.stopAt
	}
	return sk.maxNow()
}

func (sk *ShardedKernel) maxNow() time.Duration {
	var max time.Duration
	for _, k := range sk.shards {
		if k.now > max {
			max = k.now
		}
	}
	return max
}

// EventsFired returns the total events executed across all shards.
func (sk *ShardedKernel) EventsFired() uint64 {
	var n uint64
	for _, k := range sk.shards {
		n += k.fired
	}
	return n
}

// Pending returns the total live events queued across all shards (staged
// handoffs not yet merged count too — they are committed deliveries).
func (sk *ShardedKernel) Pending() int {
	n := 0
	for _, k := range sk.shards {
		n += k.queue.len()
	}
	for from := range sk.out {
		for to := range sk.out[from] {
			n += len(sk.out[from][to])
		}
	}
	return n
}

// SendFrom stages fn to run on shard `to` at virtual time at. It must be
// called from code executing on shard `from` (each shard writes only its
// own staging row). The handoff is merged into the target at the next
// window barrier; an `at` already inside the target's past by then is
// clamped to the barrier, which is exact under the conservative lookahead
// and a bounded (≤ window) delay under a relaxed one.
func (sk *ShardedKernel) SendFrom(from, to int, at time.Duration, fn func()) {
	sk.out[from][to] = append(sk.out[from][to], handoff{at: at, fn: fn})
	sk.staged[from].v = true
}

// Close releases the persistent shard workers. Idempotent; safe on a
// kernel that never ran a parallel window. After Close, Run returns
// ErrClosed and RunUntil reports false without executing anything.
// Call from the coordinating goroutine only, never from inside a window.
func (sk *ShardedKernel) Close() {
	if sk.closed {
		return
	}
	sk.closed = true
	for _, ch := range sk.wake {
		if ch != nil {
			close(ch)
		}
	}
	sk.wake = nil
}

// ensureWorkers lazily spawns the persistent workers: one per shard i ≥ 1
// (the coordinator always runs the lowest busy shard inline, and when
// shard 0 is busy it is the lowest, so shard 0 never needs a worker).
func (sk *ShardedKernel) ensureWorkers() {
	if sk.wake != nil {
		return
	}
	sk.wake = make([]chan time.Duration, len(sk.shards))
	sk.done = make(chan struct{}, 1)
	for i := 1; i < len(sk.shards); i++ {
		sk.wake[i] = make(chan time.Duration, 1)
		go sk.shardWorker(sk.shards[i], sk.wake[i])
	}
}

// shardWorker is the persistent per-shard loop: park on the wake channel,
// run one window, count down, release the coordinator when last. The
// buffered wake channel is the epoch publish (a send parks/unparks on a
// futex-backed semaphore, no spin); the atomic countdown plus single done
// channel is the sense-reversing completion barrier — the countdown reset
// by the coordinator before the next publish is what flips the epoch.
func (sk *ShardedKernel) shardWorker(k *Kernel, wake <-chan time.Duration) {
	for until := range wake {
		if !k.runWindow(until) {
			sk.winStop.Store(true)
		}
		if sk.pending.Add(-1) == 0 {
			sk.done <- struct{}{}
		}
	}
}

// flush merges every staged SendFrom handoff into its target shard, in
// (from, to) order, then clears the staging rows (keeping capacity). Must
// only run at a barrier — no shard worker is inside a window. Rows whose
// shard staged nothing are skipped via the per-shard dirty flags, so a
// silent barrier costs O(S), not O(S²).
func (sk *ShardedKernel) flush() {
	for from := range sk.out {
		if !sk.staged[from].v {
			continue
		}
		sk.staged[from].v = false
		for to := range sk.out[from] {
			hs := sk.out[from][to]
			if len(hs) == 0 {
				continue
			}
			k := sk.shards[to]
			for i := range hs {
				k.ScheduleFuncAt(hs[i].at, hs[i].fn)
				hs[i] = handoff{} // release the closure
			}
			sk.out[from][to] = hs[:0]
		}
	}
}

// runMerge performs the full barrier merge: the typed merge hook first
// (phy handoffs + boundary-mask publish), then the generic SendFrom
// flush. The order is fixed so the merge is deterministic.
func (sk *ShardedKernel) runMerge() {
	if sk.merge != nil {
		sk.merge()
	}
	sk.flush()
}

// nextEventTime returns the global minimum next-event time across shards.
func (sk *ShardedKernel) nextEventTime() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, k := range sk.shards {
		if ev := k.queue.peek(); ev != nil && (!found || ev.at < min) {
			min, found = ev.at, true
		}
	}
	return min, found
}

// workerWindowEvents is the adaptive scheduler's inline threshold: a
// parallel-mode window runs on the coordinator when the previous window
// fired fewer events than this. One publish/countdown round trip costs
// microseconds of wakeup latency per worker, and a fired event averages
// under a microsecond, so a window needs a few hundred events before the
// split amortizes the barrier. Chosen conservatively high: light windows
// dominate sub-metro workloads, and running one heavy window inline costs
// far less than running thousands of light ones through the barrier.
const workerWindowEvents = 512

// runShards executes one window [*, until) on every shard that has an
// event inside it — serially in shard order, or in parallel with the
// lowest busy shard on the coordinator and the rest on their persistent
// workers. In parallel mode the adaptive scheduler still runs near-empty
// windows inline (see the adaptive field). The modes are byte-identical
// because shards share no mutable state within a window. Reports whether
// any shard stopped; like the parallel mode (which cannot interrupt
// sibling workers), the serial mode still finishes every busy shard's
// window after one stops.
func (sk *ShardedKernel) runShards(until time.Duration) (stopped bool) {
	fired := sk.EventsFired()
	defer func() { sk.lastWindowFired = sk.EventsFired() - fired }()
	busy := sk.busy[:0]
	for i, k := range sk.shards {
		if ev := k.queue.peek(); ev != nil && ev.at < until {
			busy = append(busy, i)
		}
	}
	sk.busy = busy
	if sk.opts.SerialWindows || len(busy) < 2 ||
		(sk.adaptive && (!sk.multicore || sk.lastWindowFired < workerWindowEvents)) {
		for _, i := range busy {
			if !sk.shards[i].runWindow(until) {
				stopped = true
			}
		}
		return stopped
	}
	sk.ensureWorkers()
	sk.winStop.Store(false)
	sk.pending.Store(int32(len(busy) - 1))
	for _, i := range busy[1:] {
		sk.wake[i] <- until
	}
	if !sk.shards[busy[0]].runWindow(until) {
		stopped = true
	}
	<-sk.done
	return stopped || sk.winStop.Load()
}

// markStopped records the stopped-clock: the earliest clock among shards
// that called Stop in the final window.
func (sk *ShardedKernel) markStopped() {
	at := time.Duration(-1)
	for _, k := range sk.shards {
		if k.stopped && (at < 0 || k.now < at) {
			at = k.now
		}
	}
	if at >= 0 {
		sk.stopAt, sk.stopValid = at, true
	}
}

// windows drives the window loop shared by Run and RunUntil: pick the
// global minimum event time T, size the window (one lookahead, or out to
// the oracle's quiet bound under WindowBatched), run every busy shard
// through it, advance all clocks to the barrier, merge handoffs, and
// (when given) evaluate cond. Returns condMet and stopped.
//
// Relaxation note: with S>1, cond is evaluated at window barriers rather
// than after every event (a cross-shard condition cannot be observed
// mid-window without a barrier anyway); under WindowBatched the barriers
// — and therefore the cond checks — can additionally be as sparse as the
// oracle's quiet bounds allow. With S==1 RunUntil delegates to the inner
// kernel, which checks after every event.
func (sk *ShardedKernel) windows(horizon time.Duration, cond func() bool) (condMet, stopped bool) {
	sk.stopValid = false
	for _, k := range sk.shards {
		k.stopped = false
	}
	sk.runMerge() // handoffs staged before the run (or left by a stopped one)
	if cond != nil && cond() {
		return true, false
	}
	for {
		t, ok := sk.nextEventTime()
		if !ok {
			break
		}
		if horizon > 0 && t > horizon {
			break
		}
		until := t + sk.lookahead
		if until <= t { // overflow guard for horizonless huge lookaheads
			until = t + 1
		}
		if sk.opts.Windowing != WindowLockstep && sk.oracle != nil {
			// The extended window ends exactly at the quiet bound, so it
			// contains no cross-shard traffic and skipping the collapsed
			// intermediate barriers cannot change the trace.
			if quiet := sk.oracle(t); quiet > until {
				until = quiet
			}
		}
		if horizon > 0 && until > horizon {
			// Shrink the final window to end just past the horizon so events
			// at exactly the horizon still run (Run's contract is inclusive).
			until = horizon + 1
		}
		sk.windowsRun++
		if sk.runShards(until) {
			sk.markStopped()
			return false, true
		}
		barrier := until
		if horizon > 0 {
			if barrier > horizon {
				barrier = horizon
			}
		} else if cap := sk.maxNow() + sk.lookahead; cap > 0 && cap < barrier {
			// Horizonless runs: an oracle-extended window can end far past
			// the last event actually executed; cap the barrier one
			// lookahead past it so clocks don't warp toward the quiet
			// bound. Exact for conservative handoffs (their `at` is at
			// least a lookahead past the staging event, hence ≥ cap).
			barrier = cap
		}
		for _, k := range sk.shards {
			k.advanceTo(barrier)
		}
		sk.runMerge()
		if cond != nil && cond() {
			return true, false
		}
	}
	if horizon > 0 {
		for _, k := range sk.shards {
			k.advanceTo(horizon)
		}
	}
	return false, false
}

// Run executes events across all shards until every queue drains, the
// horizon is exceeded, or some shard calls Stop. Semantics mirror
// Kernel.Run, including the stopped-clock contract (Now reports the
// stopping shard's clock after an ErrStopped run). With one shard it
// delegates to the inner kernel and is byte-identical to sequential
// execution. Returns ErrClosed after Close.
func (sk *ShardedKernel) Run(horizon time.Duration) error {
	if sk.closed {
		return ErrClosed
	}
	if len(sk.shards) == 1 {
		sk.stopValid = false
		sk.runMerge()
		return sk.shards[0].Run(horizon)
	}
	if _, stopped := sk.windows(horizon, nil); stopped {
		return ErrStopped
	}
	return nil
}

// RunUntil executes events while cond returns false, reporting whether it
// was satisfied. With one shard it delegates to the inner kernel (cond
// checked after every event); with more, cond is checked at each window
// barrier — see the relaxation note on windows. Reports false without
// executing anything after Close.
func (sk *ShardedKernel) RunUntil(horizon time.Duration, cond func() bool) bool {
	if sk.closed {
		return false
	}
	if len(sk.shards) == 1 {
		sk.stopValid = false
		sk.runMerge()
		return sk.shards[0].RunUntil(horizon, cond)
	}
	met, _ := sk.windows(horizon, cond)
	return met
}
