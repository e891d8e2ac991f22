package sim

// Space-partitioned parallel execution: a ShardedKernel composes S
// per-shard Kernels (each with its own wheel and clock) and advances them
// in lookahead windows. Shards share no mutable state and exchange no
// events, so running the busy shards of a window serially or on one worker
// goroutine each produces byte-identical simulations. That serial==parallel
// identity is the kernel's correctness gate (TestShardedSerialMatchesParallel).
//
// No trial runs on this kernel: every experiment runs on the one sequential
// Kernel, which was faster on the one world sharding was built for
// (docs/PERFORMANCE.md, "Why there is no sharded trial kernel"). What stays
// is the window barrier itself, priced by BenchmarkShardBarrier.
//
// Two scheduler refinements ride on top of the basic lockstep loop:
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
//   - Adaptive inline execution. A parallel-mode window still runs on the
//     coordinator's goroutine when the worker barrier cannot pay for
//     itself: when the runtime has no parallelism to offer
//     (GOMAXPROCS==1), or when the previous window fired fewer than
//     workerWindowEvents events. Neither input reaches the trace —
//     execution mode never changes results (the serial==parallel gate) —
//     so the choice is free to depend on the host.
//
// With S==1 the sharded kernel constructs exactly one inner kernel and
// delegates Run to it, so a 1-shard run is byte-identical to the
// sequential kernel.

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Run on a ShardedKernel whose Close has been
// called.
var ErrClosed = errors.New("sim: Run on a closed ShardedKernel")

// ShardedKernel runs S per-shard kernels in lockstep windows behind the
// same Run surface as Kernel. Construct with NewShardedKernel; the zero
// value is not usable. A kernel that executed parallel windows owns worker
// goroutines: call Close when done with it (Close is idempotent; Run after
// Close returns ErrClosed).
//
// ShardedKernel is not safe for concurrent use: Run and Close must be
// called from the coordinating goroutine. Within a window, shard code runs
// on per-shard workers and must touch only its own shard's state.
type ShardedKernel struct {
	shards    []*Kernel
	lookahead time.Duration
	opts      Options
	busy      []int // scratch: indices of shards with events in the window

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
	// has a single execution slot (multicore is false), or when the
	// previous window executed fewer than workerWindowEvents events. Tests
	// and benchmarks that measure the barrier itself clear adaptive to
	// force every window through it.
	adaptive        bool
	multicore       bool
	lastWindowFired uint64

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
// Every shard kernel carries seed. shards < 1 is clamped to 1; lookahead
// < 1ns is clamped to 1ns (a window always makes progress because it
// starts at the global minimum event time and event times are whole
// nanoseconds).
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
		busy:      make([]int, 0, shards),
	}
	for i := range sk.shards {
		sk.shards[i] = o.NewKernel(seed)
	}
	return sk
}

// Options reports the implementations the kernel was built from.
func (sk *ShardedKernel) Options() Options { return sk.opts }

// Shards returns the shard count.
func (sk *ShardedKernel) Shards() int { return len(sk.shards) }

// Shard returns shard i's kernel. Model code owned by shard i schedules on
// this kernel only.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i] }

// Now returns the global virtual clock: the latest shard clock, or, after
// a run ended via Stop, the stopping shard's clock (the earliest stop
// point when several shards stopped in the same window). At window
// barriers every shard sits on the same time, so between Run calls this
// matches Kernel's clock contract, including the stopped-clock rule.
func (sk *ShardedKernel) Now() time.Duration {
	if sk.stopValid {
		return sk.stopAt
	}
	var max time.Duration
	for _, k := range sk.shards {
		if k.now > max {
			max = k.now
		}
	}
	return max
}

func (sk *ShardedKernel) eventsFired() uint64 {
	var n uint64
	for _, k := range sk.shards {
		n += k.fired
	}
	return n
}

// Close releases the persistent shard workers. Idempotent; safe on a
// kernel that never ran a parallel window. After Close, Run returns
// ErrClosed without executing anything. Call from the coordinating
// goroutine only, never from inside a window.
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
// split amortizes the barrier.
const workerWindowEvents = 512

// runShards executes one window [*, until) on every shard that has an
// event inside it — serially in shard order, or in parallel with the
// lowest busy shard on the coordinator and the rest on their persistent
// workers. In parallel mode the adaptive scheduler still runs near-empty
// windows inline (see the adaptive field). Reports whether any shard
// stopped; like the parallel mode (which cannot interrupt sibling
// workers), the serial mode still finishes every busy shard's window after
// one stops.
func (sk *ShardedKernel) runShards(until time.Duration) (stopped bool) {
	fired := sk.eventsFired()
	defer func() { sk.lastWindowFired = sk.eventsFired() - fired }()
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

// Run executes events across all shards until every queue drains, the
// horizon is exceeded, or some shard calls Stop: pick the global minimum
// event time T, run every busy shard through [T, T+lookahead), advance all
// clocks to the barrier, repeat. Semantics mirror Kernel.Run, including
// the stopped-clock contract (Now reports the stopping shard's clock after
// an ErrStopped run). With one shard it delegates to the inner kernel.
// Returns ErrClosed after Close.
func (sk *ShardedKernel) Run(horizon time.Duration) error {
	if sk.closed {
		return ErrClosed
	}
	sk.stopValid = false
	if len(sk.shards) == 1 {
		return sk.shards[0].Run(horizon)
	}
	for _, k := range sk.shards {
		k.stopped = false
	}
	for {
		t, ok := sk.nextEventTime()
		if !ok || (horizon > 0 && t > horizon) {
			break
		}
		until := t + sk.lookahead
		if until <= t { // overflow guard for horizonless huge lookaheads
			until = t + 1
		}
		if horizon > 0 && until > horizon {
			// Shrink the final window to end just past the horizon so events
			// at exactly the horizon still run (Run's contract is inclusive).
			until = horizon + 1
		}
		if sk.runShards(until) {
			sk.markStopped()
			return ErrStopped
		}
		barrier := until
		if horizon > 0 && barrier > horizon {
			barrier = horizon
		}
		for _, k := range sk.shards {
			k.advanceTo(barrier)
		}
	}
	if horizon > 0 {
		for _, k := range sk.shards {
			k.advanceTo(horizon)
		}
	}
	return nil
}
