package sim

import (
	"testing"
	"time"
)

// TestRunStoppedClockStaysAtStopPoint is the stopped-clock regression test:
// the seed kernel advanced k.now to the horizon after the event loop exited
// even when Stop fired during the final queued event, so an aborted run
// reported a time the simulation never reached. Both the "Stop mid-queue"
// and the "Stop from the last event" shapes must pin the clock.
func TestRunStoppedClockStaysAtStopPoint(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		// Stop fired by the LAST queued event: the loop drains, which is the
		// path that used to warp the clock to the horizon.
		k := Options{Queue: q.kind}.NewKernel(1)
		k.Schedule(time.Second, func() { k.Stop() })
		if err := k.Run(time.Hour); err != ErrStopped {
			t.Fatalf("%s: run = %v, want ErrStopped", q.name, err)
		}
		if k.Now() != time.Second {
			t.Fatalf("%s: now = %v after Stop from last event, want 1s (not the horizon)", q.name, k.Now())
		}

		// Stop fired mid-queue with a horizon: same contract.
		k = Options{Queue: q.kind}.NewKernel(1)
		k.Schedule(time.Second, func() { k.Stop() })
		k.Schedule(2*time.Second, func() {})
		if err := k.Run(time.Hour); err != ErrStopped {
			t.Fatalf("%s: run = %v, want ErrStopped", q.name, err)
		}
		if k.Now() != time.Second {
			t.Fatalf("%s: now = %v after mid-queue Stop, want 1s", q.name, k.Now())
		}
	}
}

// TestRunUntilHonorsStop pins the same contract for RunUntil, which used to
// ignore Stop entirely: the loop must exit unsatisfied at the stop point
// instead of draining the queue and warping to the horizon.
func TestRunUntilHonorsStop(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		ran := 0
		k.Schedule(time.Second, func() { ran++; k.Stop() })
		k.Schedule(2*time.Second, func() { ran++ })
		ok := k.RunUntil(time.Hour, func() bool { return false })
		if ok {
			t.Fatalf("%s: RunUntil reported cond satisfied after Stop", q.name)
		}
		if ran != 1 {
			t.Fatalf("%s: ran = %d events after Stop, want 1", q.name, ran)
		}
		if k.Now() != time.Second {
			t.Fatalf("%s: now = %v after Stop, want 1s", q.name, k.Now())
		}
	}
}

// TestShardedSingleShardMatchesKernel pins the executable bridge between
// the sharded and sequential contracts: a 1-shard ShardedKernel delegates
// to one inner kernel seeded with the caller's seed, so the same workload
// produces a byte-identical trace on both.
func TestShardedSingleShardMatchesKernel(t *testing.T) {
	t.Parallel()
	type rec struct {
		id int
		at time.Duration
	}
	load := func(k *Kernel) *[]rec {
		trace := &[]rec{}
		rng := k.Stream(0, PurposePeer)
		for i := 0; i < 50; i++ {
			id := i
			k.Schedule(rng.Jitter(time.Second), func() {
				*trace = append(*trace, rec{id, k.Now()})
				if id%3 == 0 {
					k.ScheduleFunc(rng.Jitter(100*time.Millisecond), func() {
						*trace = append(*trace, rec{1000 + id, k.Now()})
					})
				}
			})
		}
		return trace
	}

	plain := NewKernel(77)
	wantTrace := load(plain)
	if err := plain.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	sk := NewShardedKernel(77, 1, 25*time.Microsecond)
	gotTrace := load(sk.Shard(0))
	if err := sk.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	if len(*wantTrace) == 0 {
		t.Fatal("workload fired no events; test is vacuous")
	}
	if len(*gotTrace) != len(*wantTrace) {
		t.Fatalf("trace lengths diverged: sharded %d, plain %d", len(*gotTrace), len(*wantTrace))
	}
	for i := range *wantTrace {
		if (*gotTrace)[i] != (*wantTrace)[i] {
			t.Fatalf("trace diverged at %d: sharded %+v, plain %+v", i, (*gotTrace)[i], (*wantTrace)[i])
		}
	}
	if sk.Now() != plain.Now() {
		t.Fatalf("clocks diverged: sharded %v, plain %v", sk.Now(), plain.Now())
	}
}

// TestShardedStopAndHorizon pins ShardedKernel's Run surface semantics:
// horizon advance on clean completion, ErrStopped + stopped clock when a
// shard stops, and events at exactly the horizon.
func TestShardedStopAndHorizon(t *testing.T) {
	t.Parallel()

	// Clean completion advances every shard to the horizon.
	sk := NewShardedKernel(3, 3, 20*time.Microsecond)
	sk.Shard(1).ScheduleFunc(time.Microsecond, func() {})
	if err := sk.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i := range sk.shards {
		if got := sk.Shard(i).Now(); got != time.Second {
			t.Fatalf("shard %d clock = %v after clean run, want 1s", i, got)
		}
	}

	// Stop on any shard aborts the run without warping clocks.
	sk = NewShardedKernel(3, 2, 20*time.Microsecond)
	sk.Shard(1).ScheduleFunc(5*time.Microsecond, func() { sk.Shard(1).Stop() })
	if err := sk.Run(time.Second); err != ErrStopped {
		t.Fatalf("run = %v, want ErrStopped", err)
	}
	if got := sk.Shard(1).Now(); got != 5*time.Microsecond {
		t.Fatalf("stopped shard clock = %v, want 5µs", got)
	}

	// Events at exactly the horizon run (Run's contract is inclusive).
	sk = NewShardedKernel(3, 2, 20*time.Microsecond)
	atHorizon := false
	sk.Shard(0).ScheduleFunc(time.Second, func() { atHorizon = true })
	if err := sk.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !atHorizon {
		t.Fatal("event at exactly the horizon did not run")
	}
}

// TestShardedCloseLifecycle: Close is idempotent, and Run after Close fails
// descriptively instead of running.
func TestShardedCloseLifecycle(t *testing.T) {
	t.Parallel()
	sk := NewShardedKernel(7, 4, 20*time.Microsecond)
	ran := false
	sk.Shard(2).ScheduleFunc(5*time.Microsecond, func() { ran = true })
	sk.Close()
	sk.Close()
	if err := sk.Run(time.Second); err != ErrClosed {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	if ran {
		t.Fatal("a closed kernel ran an event")
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
