package sim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkKernelChurn is the old-vs-new comparison for the event kernel:
// the dominant timer workload in every scenario is "schedule far, cancel or
// reschedule early" (retransmission timeouts, Interest timeouts, lookup
// timeouts), so each op rearms a random one of `pending` live timers to a
// fresh deadline — a remove from an arbitrary queue position plus a push.
// The heap pays O(log n) sifts and their cache misses for both halves; the
// wheel pays two O(1) bucket updates.
func BenchmarkKernelChurn(b *testing.B) {
	for _, pending := range []int{100_000, 1_000_000} {
		for _, q := range queueKinds {
			b.Run(fmt.Sprintf("%s/pending=%d", q.name, pending), func(b *testing.B) {
				k := Options{Queue: q.kind}.NewKernel(1)
				fn := func() {}
				timers := make([]*Timer, pending)
				for i := range timers {
					timers[i] = k.NewTimer(fn)
					timers[i].Reset(time.Second + time.Duration(i)*time.Millisecond)
				}
				// A tiny LCG keeps target/deadline selection out of the
				// measured path's allocation and branch profile.
				rngState := uint64(1)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rngState = rngState*6364136223846793005 + 1442695040888963407
					j := int((rngState >> 33) % uint64(pending))
					timers[j].Reset(time.Second + time.Duration(rngState%uint64(8*time.Second)))
				}
			})
		}
	}
}

// BenchmarkKernelFire measures the drain path: schedule one jittered event
// and pop it, the phy frame-delivery pattern, over a standing population.
func BenchmarkKernelFire(b *testing.B) {
	for _, q := range queueKinds {
		b.Run(q.name, func(b *testing.B) {
			k := Options{Queue: q.kind}.NewKernel(1)
			fn := func() {}
			for i := 0; i < 10_000; i++ {
				k.ScheduleFunc(time.Hour+time.Duration(i)*time.Millisecond, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.ScheduleFunc(time.Duration(i%97)*time.Microsecond, fn)
				k.Step()
			}
		})
	}
}

// BenchmarkShardBarrier prices the sharded window barrier. The workload is
// barrier-dominated by construction: four shards each run one
// self-rescheduling tick per lookahead window, so an op is one window whose
// body is four trivial events; sim.shard_window_ns in BENCHMARK.json times
// the same window.
func BenchmarkShardBarrier(b *testing.B) {
	const shards = 4
	const tick = time.Microsecond
	sk := NewShardedKernel(1, shards, tick)
	defer sk.Close()
	for i := 0; i < shards; i++ {
		k := sk.Shard(i)
		var step func()
		step = func() { k.ScheduleFunc(tick, step) }
		k.ScheduleFuncAt(0, step)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := sk.Run(time.Duration(b.N) * tick); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTimerReset measures the steady-state Reset of a live timer — the
// retransmission-timeout hot path. The contract is 0 allocs/op.
func BenchmarkTimerReset(b *testing.B) {
	for _, q := range queueKinds {
		b.Run(q.name, func(b *testing.B) {
			k := Options{Queue: q.kind}.NewKernel(1)
			fn := func() {}
			for i := 0; i < 1024; i++ {
				k.ScheduleFunc(time.Hour+time.Duration(i)*time.Second, fn)
			}
			tm := k.NewTimer(fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Reset(time.Duration(i%7) * time.Millisecond)
			}
		})
	}
}
