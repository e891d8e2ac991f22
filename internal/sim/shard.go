package sim

// Space-partitioned lockstep execution: a ShardedKernel composes S
// per-shard Kernels (each with its own wheel and clock) and advances them
// in lookahead windows, running each window's busy shards one after another
// on the caller's goroutine. Shards share no mutable state and exchange no
// events.
//
// No trial runs on this kernel: every experiment runs on the one sequential
// Kernel, which was faster on the one world sharding was built for
// (docs/PERFORMANCE.md, "Why there is no sharded trial kernel"). What stays
// is the window barrier itself, priced by BenchmarkShardBarrier.
//
// With S==1 the sharded kernel constructs exactly one inner kernel and
// delegates Run to it, so a 1-shard run is byte-identical to the
// sequential kernel.

import (
	"errors"
	"time"
)

// ErrClosed is returned by Run on a ShardedKernel whose Close has been
// called.
var ErrClosed = errors.New("sim: Run on a closed ShardedKernel")

// ShardedKernel runs S per-shard kernels in lockstep windows behind the
// same Run surface as Kernel. Construct with NewShardedKernel; the zero
// value is not usable. Close retires it (Close is idempotent; Run after
// Close returns ErrClosed). It is not safe for concurrent use.
type ShardedKernel struct {
	shards    []*Kernel
	lookahead time.Duration
	closed    bool
}

// NewShardedKernel returns a kernel of `shards` spatial shards advancing in
// windows of `lookahead`. Every shard kernel carries seed. shards < 1 is
// clamped to 1; lookahead < 1ns is clamped to 1ns (a window always makes
// progress because it starts at the global minimum event time and event
// times are whole nanoseconds).
func NewShardedKernel(seed int64, shards int, lookahead time.Duration) *ShardedKernel {
	sk := &ShardedKernel{
		shards:    make([]*Kernel, max(shards, 1)),
		lookahead: max(lookahead, 1),
	}
	for i := range sk.shards {
		sk.shards[i] = NewKernel(seed)
	}
	return sk
}

// Shard returns shard i's kernel. Model code owned by shard i schedules on
// this kernel only.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i] }

// Close retires the kernel: Run returns ErrClosed from then on. Idempotent.
func (sk *ShardedKernel) Close() { sk.closed = true }

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

// Run executes events across all shards until every queue drains or the
// horizon is exceeded: pick the global minimum event time T, run every
// shard through [T, T+lookahead) in shard order, advance all clocks to the
// barrier, repeat. Semantics mirror Kernel.Run. With one shard it
// delegates to the inner kernel. Returns ErrClosed after Close.
func (sk *ShardedKernel) Run(horizon time.Duration) error {
	if sk.closed {
		return ErrClosed
	}
	if len(sk.shards) == 1 {
		return sk.shards[0].Run(horizon)
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
		for _, k := range sk.shards {
			k.runWindow(until)
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
