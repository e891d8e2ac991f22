package sim

import (
	"testing"
	"time"
)

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
			k.ScheduleFunc(rng.Jitter(time.Second), func() {
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
	if sk.Shard(0).Now() != plain.Now() {
		t.Fatalf("clocks diverged: sharded %v, plain %v", sk.Shard(0).Now(), plain.Now())
	}
}

// TestShardedHorizon pins ShardedKernel's Run surface semantics: horizon
// advance on clean completion, and events at exactly the horizon.
func TestShardedHorizon(t *testing.T) {
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
