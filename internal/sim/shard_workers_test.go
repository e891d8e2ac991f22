package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestShardedCloseLifecycle pins the persistent-worker lifecycle: a kernel
// that ran parallel windows owns S-1 parked worker goroutines, Close
// releases every one of them (goroutine-leak check), double-Close is safe,
// and Run after Close fails descriptively instead of deadlocking
// on closed wake channels. Deliberately not parallel: it counts goroutines.
func TestShardedCloseLifecycle(t *testing.T) {
	const shards = 4
	before := runtime.NumGoroutine()

	sk := NewShardedKernel(7, shards, 20*time.Microsecond)
	// The adaptive scheduler would run this near-empty workload inline and
	// never spawn a worker; the lifecycle under test needs the workers up.
	sk.adaptive = false
	for s := 0; s < shards; s++ {
		k := sk.Shard(s)
		k.ScheduleFunc(5*time.Microsecond, func() {
			k.ScheduleFunc(5*time.Microsecond, func() {})
		})
	}
	if err := sk.Run(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got < before+shards-1 {
		t.Fatalf("after a parallel run: %d goroutines, want at least %d (baseline %d + %d workers)",
			got, before+shards-1, before, shards-1)
	}

	sk.Close()
	sk.Close() // idempotent

	// Workers park on a channel receive and exit when Close closes it; give
	// the scheduler a moment to retire them before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after Close: %d, baseline %d", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}

	if err := sk.Run(time.Second); err != ErrClosed {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}

	// A kernel that never ran (and never spawned workers) closes cleanly too.
	idle := NewShardedKernel(7, shards, time.Microsecond)
	idle.Close()
	idle.Close()
}

// TestShardedStoppedClockMultiShard pins the S>1 stopped-clock contract:
// when several shards stop inside the same window their clocks disagree at
// the abort, and Now must report the earliest stop point — the first abort
// in virtual time — not the furthest-ahead shard. A later clean run clears
// the stopped clock. (PR 7 fixed this only for the S==1 delegation path.)
func TestShardedStoppedClockMultiShard(t *testing.T) {
	t.Parallel()
	sk := NewShardedKernel(5, 3, 50*time.Microsecond)
	defer sk.Close()
	sk.Shard(0).ScheduleFunc(30*time.Microsecond, func() { sk.Shard(0).Stop() })
	sk.Shard(1).ScheduleFunc(10*time.Microsecond, func() {})
	sk.Shard(2).ScheduleFunc(40*time.Microsecond, func() { sk.Shard(2).Stop() })

	if err := sk.Run(time.Second); err != ErrStopped {
		t.Fatalf("run = %v, want ErrStopped", err)
	}
	if got := sk.Now(); got != 30*time.Microsecond {
		t.Fatalf("Now after multi-shard Stop = %v, want the earliest stop point 30µs", got)
	}
	// Per-shard clocks still tell the per-shard truth.
	if got := sk.Shard(2).Now(); got != 40*time.Microsecond {
		t.Fatalf("shard 2 clock = %v, want 40µs", got)
	}

	// The stopped clock is an attribute of the aborted run, not the kernel:
	// a subsequent run reports real clocks again.
	if err := sk.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := sk.Now(); got != 40*time.Microsecond {
		t.Fatalf("Now after recovery run = %v, want the max shard clock 40µs", got)
	}
}
