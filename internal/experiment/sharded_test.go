package experiment

import (
	"fmt"
	"math"
	"testing"
	"time"

	"dapes/internal/phy"
	"dapes/internal/sim"
)

// TestGoldenTraceShardedMatchesSequential is the parallel kernel's
// acceptance gate: for every registered scenario, one run forced onto the
// sequential reference kernel (Engine.Sequential) and one routed through
// the space-partitioned kernel at a single stripe (Shards = 1) must produce
// identical per-trial metrics and byte-identical emitted JSON. A one-stripe
// partition exercises the independent sharded code path — ShardedKernel
// window loop, ShardedMedium attach/identity plumbing — while the contract
// says it must be byte-equivalent to the sequential schedule; any
// divergence means partitioning changed simulation behavior where it
// promised not to. Scenarios that don't honour Scale.Shards (baselines,
// Fig.-8 worlds, custom scenarios) build the sequential kernel on both
// sides and pass trivially — the gate asserts that is what they did; the
// DAPES family (including urban-metro, whose default of 4 stripes both
// sides override) carries it.
func TestGoldenTraceShardedMatchesSequential(t *testing.T) {
	seq, one := goldenScale(), goldenScale()
	seq.Engine.Sequential = true
	one.Shards = 1
	goldenGate(t, "sequential", seq, "one-stripe", one)
}

// TestGoldenShardedSerialMatchesParallel holds the serial window reference
// against the persistent-worker execution on every registered scenario at
// four stripes: the parallel schedule is a pure function of (BaseSeed,
// trial, shards, lookahead), never of goroutine timing.
func TestGoldenShardedSerialMatchesParallel(t *testing.T) {
	serial, par := goldenScale(), goldenScale()
	serial.Shards, par.Shards = 4, 4
	serial.Engine.SerialWindows = true
	goldenGate(t, "serial", serial, "parallel", par)
}

// TestGoldenShardedBatchingMatchesLockstep holds the one-lookahead-per-
// window reference against oracle-batched windows on every registered
// scenario at four stripes.
func TestGoldenShardedBatchingMatchesLockstep(t *testing.T) {
	lock, batch := goldenScale(), goldenScale()
	lock.Shards, batch.Shards = 4, 4
	lock.Engine.Windowing = sim.WindowLockstep
	goldenGate(t, "lockstep", lock, "batched", batch)
}

// TestShardedTrialSingleShardMatchesSequential pins the one-shard bridge
// directly, without the registry in between, on a denser mix than
// goldenScale so the equivalence covers contention, PEBA, and forwarding.
func TestShardedTrialSingleShardMatchesSequential(t *testing.T) {
	t.Parallel()
	s := goldenScale()
	s.MobileDown = 6
	s.PureForwarders = 3
	s.Intermediates = 3

	seq, err := RunDAPESTrial(s, 60, 0, PaperDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s.Shards = 1
	sharded, err := RunDAPESTrial(s, 60, 0, PaperDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if seq != sharded {
		t.Fatalf("one-shard trial diverged from sequential:\nsequential: %+v\nsharded:    %+v", seq, sharded)
	}
	if seq.Transmissions == 0 {
		t.Fatal("trial put no frames on the air; equivalence is vacuous")
	}
}

// metroScale is the urban-metro workload the determinism tests drive: small
// enough to run several times per test, dense enough that stripes genuinely
// talk across boundaries.
func metroScale() Scale {
	s := goldenScale()
	s.Horizon = 60 * time.Second
	return s
}

// TestShardedTrialSerialMatchesParallel is the experiment-level half of the
// serial==parallel gate: a multi-shard urban-metro trial must produce
// identical results whether windows execute on one goroutine or one per
// busy shard. This is the property that makes the parallel kernel a
// deterministic simulator rather than a racy approximation — the parallel
// schedule is a pure function of (BaseSeed, trial, shards, lookahead).
func TestShardedTrialSerialMatchesParallel(t *testing.T) {
	t.Parallel()
	s := metroScale()
	for _, shards := range []int{2, 4} {
		s.Shards = shards
		run := func(serial bool) TrialResult {
			s := s
			s.Engine.SerialWindows = serial
			var built []*world
			s.Engine.built = &built
			tr, err := urbanMetroTrial(s, 60, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertEngine(t, "urban-metro", s, built)
			return tr
		}
		serial := run(true)
		par := run(false)
		if serial != par {
			t.Fatalf("%d shards: serial and parallel window execution diverged:\nserial:   %+v\nparallel: %+v",
				shards, serial, par)
		}
		if serial.Transmissions == 0 {
			t.Fatalf("%d shards: trial put no frames on the air; property is vacuous", shards)
		}
	}
}

// TestShardedTrialDeterministic reruns the same multi-shard trial and
// requires identical metrics — no map-order, goroutine-order, or pool-state
// leaks across runs.
func TestShardedTrialDeterministic(t *testing.T) {
	t.Parallel()
	s := metroScale()
	s.Shards = 4
	first, err := urbanMetroTrial(s, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 0; rerun < 2; rerun++ {
		again, err := urbanMetroTrial(s, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		if first != again {
			t.Fatalf("rerun %d diverged:\nfirst: %+v\nagain: %+v", rerun, first, again)
		}
	}
}

// TestTrialSeedWraps pins the documented two's-complement contract: a base
// seed near the int64 boundary derives wrapped — not platform-dependent —
// trial seeds. The expected value routes through variables because Go
// rejects constant-folded overflow at compile time.
func TestTrialSeedWraps(t *testing.T) {
	t.Parallel()
	base := int64(math.MaxInt64)
	want := int64(uint64(base) + uint64(int64(3))*7919)
	if want >= 0 {
		t.Fatalf("test setup: expected a wrapped (negative) seed, got %d", want)
	}
	if got := TrialSeed(base, 3); got != want {
		t.Fatalf("TrialSeed(MaxInt64, 3) = %d, want %d", got, want)
	}
	if got := TrialSeed(42, 3); got != 42+3*7919 {
		t.Fatalf("TrialSeed(42, 3) = %d, want %d (in-range derivation must be unchanged)", got, 42+3*7919)
	}
}

// BenchmarkShardedKernel measures the partitioned kernel's payoff: one
// urban-grid-xl density trial on the sequential reference versus the
// sharded kernel at 2 and 4 stripes (relaxed urban-metro lookahead,
// parallel windows). Informational: the measured comparison of the two
// kernels, with spread, is BENCHMARK.json's metro-sharded against metro-seq
// (wall_s, mallocs_m). Wall-clock depends on the host's core count — on a
// single-slot runner the adaptive scheduler runs every window inline and
// sharding pays through partitioning, not goroutines.
func BenchmarkShardedKernel(b *testing.B) {
	dense := ReducedScale()
	dense.Trials = 1
	dense.NumFiles = 1
	dense.PacketsPerFile = 8
	dense.PacketSize = 200
	dense.Horizon = 30 * time.Second
	dense.MobileDown *= 25
	dense.PureForwarders *= 25
	dense.Intermediates *= 25
	dense.AreaSide = areaSide * 3
	const wifiRange = 60.0
	opts := PaperDefaults()

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := RunDAPESTrial(dense, wifiRange, 0, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	la := urbanMetroLookahead(phy.Config{Range: wifiRange, LossRate: dense.LossRate})
	for _, shards := range []int{2, 4} {
		sharded := dense
		sharded.Shards = shards
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runDAPESTrial(sharded, wifiRange, 0, opts, la); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Serial window execution on the same 4-stripe partition: the floor the
	// persistent-worker barrier must stay at or below for parallelism to be
	// paying at all (see docs/PERFORMANCE.md).
	b.Run("shards-4-serial", func(b *testing.B) {
		serial := dense
		serial.Shards = 4
		serial.Engine.SerialWindows = true
		for i := 0; i < b.N; i++ {
			if _, err := runDAPESTrial(serial, wifiRange, 0, opts, la); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardedKernelMetro is the headline metro benchmark: the
// urban-metro scenario at the exact [scale] of plans/urban-metro.toml —
// 50,003 nodes on 4 density-balanced stripes, 10 s horizon — through the
// registered scenario, the same world BENCHMARK.json's metro-sharded
// workload measures (wall_s, mallocs_m). The `make bench` smoke runs it
// once per CI build so the 50k-node path cannot rot.
func BenchmarkShardedKernelMetro(b *testing.B) {
	metro := ReducedScale()
	metro.Trials = 1
	metro.NumFiles = 1
	metro.PacketsPerFile = 4
	metro.PacketSize = 200
	metro.Horizon = 10 * time.Second
	metro.Stationary = 2
	metro.MobileDown = 8
	metro.PureForwarders = 1912
	metro.Intermediates = 80
	metro.BaseSeed = 11
	metro.Shards = 4
	sc, ok := Lookup("urban-metro")
	if !ok {
		b.Fatal("urban-metro not registered")
	}
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(metro, 60, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestShardedTrialBatchingMatchesLockstep pins window batching at the
// experiment level under the conservative lookahead (where a staged
// handoff always merges before any of its deliveries are due, so barrier
// placement is unobservable): the full urban-metro trial must produce
// identical metrics whether the kernel takes a barrier every window or
// batches past mask-proven quiet boundaries. The phy- and sim-level gates
// prove batching actually collapses barriers; this one proves a dense
// end-to-end workload cannot tell the difference.
func TestShardedTrialBatchingMatchesLockstep(t *testing.T) {
	t.Parallel()
	s := metroScale()
	s.Shards = 4
	run := func(mode sim.WindowingMode) TrialResult {
		s := s
		s.Engine.Windowing = mode
		var built []*world
		s.Engine.built = &built
		tr, err := RunDAPESTrial(s, 60, 0, PaperDefaults())
		if err != nil {
			t.Fatal(err)
		}
		assertEngine(t, "fig7-dapes", s, built)
		return tr
	}
	lock := run(sim.WindowLockstep)
	batch := run(sim.WindowBatched)
	if lock != batch {
		t.Fatalf("batched windowing diverged from lockstep:\nlockstep: %+v\nbatched:  %+v", lock, batch)
	}
	if lock.Transmissions == 0 {
		t.Fatal("trial put no frames on the air; property is vacuous")
	}
}
