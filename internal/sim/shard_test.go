package sim

import (
	"math/rand"
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

// shardedChurn drives a randomized multi-shard workload — self-sustaining
// per-shard chains with per-shard random draws, horizon-bounded runs — and
// returns the per-shard traces. It is the shared body of the
// serial==parallel equivalence test and the CI -race step (shards share no
// state, so the race detector proves windows really run apart). The kernel
// is built from opts and must report them back: a gate that compares two
// engines has to know it ran two.
func shardedChurn(t *testing.T, shards int, opts Options) [][]int64 {
	t.Helper()
	const lookahead = 50 * time.Microsecond
	sk := opts.NewShardedKernel(9001, shards, lookahead)
	defer sk.Close()
	if sk.Options() != opts || sk.Shard(shards-1).Queue() != opts.Queue {
		t.Fatalf("built %+v on queue %d, asked for %+v", sk.Options(), sk.Shard(shards-1).Queue(), opts)
	}
	// Force every parallel window through the worker barrier: the adaptive
	// scheduler would run this light workload inline, leaving the
	// serial-vs-parallel comparison vacuous.
	sk.adaptive = false
	traces := make([][]int64, shards)
	streams := make([]Stream, shards) // one per shard: windows share nothing
	for i := range streams {
		streams[i] = sk.Shard(i).Stream(i, PurposePeer)
	}

	// Each shard runs chains that record (id, now) into its own trace, draw
	// jitter from its own stream, and fork into two chains per step.
	var arm func(shard, depth, id int)
	arm = func(shard, depth, id int) {
		k := sk.Shard(shard)
		k.ScheduleFunc(streams[shard].Jitter(30*time.Microsecond), func() {
			traces[shard] = append(traces[shard], int64(id)<<32|int64(k.Now()))
			if depth == 0 {
				return
			}
			arm(shard, depth-1, id+100)
			arm(shard, depth-1, id+1)
		})
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8*shards; i++ {
		arm(rng.Intn(shards), 6, i*10_000)
	}
	// Horizon-bounded stretches followed by an open-ended drain, like the
	// collect loops in internal/experiment.
	if err := sk.Run(200 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := sk.Run(800 * time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if err := sk.Run(0); err != nil {
		t.Fatal(err)
	}
	return traces
}

// TestShardedSerialMatchesParallel is the sharded-execution equivalence
// gate at the kernel level: the same churn run with windows executed
// serially and with one goroutine per busy shard must produce byte-identical
// per-shard traces. Under -race this doubles as the data-race proof for the
// worker barrier.
func TestShardedSerialMatchesParallel(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{2, 3, 4, 7} {
		serial := shardedChurn(t, shards, Options{SerialWindows: true})
		par := shardedChurn(t, shards, Options{})
		total := 0
		for s := 0; s < shards; s++ {
			if len(serial[s]) != len(par[s]) {
				t.Fatalf("%d shards: shard %d trace lengths diverged: serial %d, parallel %d",
					shards, s, len(serial[s]), len(par[s]))
			}
			for i := range serial[s] {
				if serial[s][i] != par[s][i] {
					t.Fatalf("%d shards: shard %d diverged at %d: serial %x, parallel %x",
						shards, s, i, serial[s][i], par[s][i])
				}
			}
			total += len(serial[s])
		}
		if total == 0 {
			t.Fatalf("%d shards: churn fired no events; property is vacuous", shards)
		}
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
	for i := 0; i < sk.Shards(); i++ {
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
