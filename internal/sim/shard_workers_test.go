package sim

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// TestShardedCloseLifecycle pins the persistent-worker lifecycle: a kernel
// that ran parallel windows owns S-1 parked worker goroutines, Close
// releases every one of them (goroutine-leak check), double-Close is safe,
// and Run/RunUntil after Close fail descriptively instead of deadlocking
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
	if sk.RunUntil(time.Second, func() bool { return true }) {
		t.Fatal("RunUntil after Close reported the condition satisfied")
	}

	// A kernel that never ran (and never spawned workers) closes cleanly too.
	idle := NewShardedKernel(7, shards, time.Microsecond)
	idle.Close()
	idle.Close()
}

// batchingWorkload runs a dense-local / sparse-boundary workload under the
// given windowing mode and returns its per-shard traces plus the number of
// window barriers crossed. Every shard chatters locally every 1µs (at a
// 500ns phase, so nothing ever ties with a merged handoff), and at known
// virtual times one shard sends a conservative handoff to the next. The
// installed oracle exposes exactly those send times as the quiet bound —
// the contract SetWindowOracle documents.
func batchingWorkload(t *testing.T, mode WindowingMode, shards int) ([][]int64, uint64) {
	t.Helper()
	const lookahead = 10 * time.Microsecond
	const horizon = 600 * time.Microsecond
	sk := Options{Windowing: mode}.NewShardedKernel(31, shards, lookahead)
	defer sk.Close()
	if got := sk.Options().Windowing; got != mode {
		t.Fatalf("built windowing mode %d, asked for %d", got, mode)
	}

	traces := make([][]int64, shards)
	for s := 0; s < shards; s++ {
		s := s
		k := sk.Shard(s)
		id := 0
		var tick func()
		tick = func() {
			traces[s] = append(traces[s], int64(id)<<32|int64(k.Now()))
			id++
			k.ScheduleFunc(time.Microsecond, tick)
		}
		k.ScheduleFunc(500*time.Nanosecond, tick)
	}

	handoffAt := []time.Duration{
		100 * time.Microsecond,
		200 * time.Microsecond,
		300 * time.Microsecond,
		400 * time.Microsecond,
		500 * time.Microsecond,
	}
	for i, h := range handoffAt {
		from, to := i%shards, (i+1)%shards
		h := h
		sk.Shard(from).ScheduleFuncAt(h, func() {
			sk.SendFrom(from, to, h+lookahead, func() {
				traces[to] = append(traces[to], int64(9_000_000+to)<<32|int64(sk.Shard(to).Now()))
			})
		})
	}
	sk.SetWindowOracle(func(start time.Duration) time.Duration {
		for _, h := range handoffAt {
			if h >= start {
				return h
			}
		}
		return time.Duration(math.MaxInt64)
	})

	if err := sk.Run(horizon); err != nil {
		t.Fatal(err)
	}
	return traces, sk.Windows()
}

// TestWindowBatchingMatchesLockstep is the batching golden gate: on an
// oracle-covered workload, the batched scheduler must reproduce the
// per-window lockstep reference byte-for-byte at any shard count — while
// demonstrably collapsing barriers (otherwise the mode is untested).
func TestWindowBatchingMatchesLockstep(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{2, 3, 4, 7} {
		lock, lockWin := batchingWorkload(t, WindowLockstep, shards)
		batch, batchWin := batchingWorkload(t, WindowBatched, shards)
		total := 0
		for s := 0; s < shards; s++ {
			if len(lock[s]) != len(batch[s]) {
				t.Fatalf("%d shards: shard %d trace lengths diverged: lockstep %d, batched %d",
					shards, s, len(lock[s]), len(batch[s]))
			}
			for i := range lock[s] {
				if lock[s][i] != batch[s][i] {
					t.Fatalf("%d shards: shard %d diverged at %d: lockstep %x, batched %x",
						shards, s, i, lock[s][i], batch[s][i])
				}
			}
			total += len(lock[s])
		}
		if total == 0 {
			t.Fatalf("%d shards: workload fired no events; gate is vacuous", shards)
		}
		if batchWin*2 >= lockWin {
			t.Fatalf("%d shards: batching collapsed no barriers: lockstep %d windows, batched %d",
				shards, lockWin, batchWin)
		}
	}
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
