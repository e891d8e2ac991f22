package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// queueKinds enumerates the backends; tests that exercise kernel semantics
// run against both so the wheel cannot drift from the reference heap.
var queueKinds = []struct {
	name string
	kind QueueKind
}{
	{"wheel", QueueWheel},
	{"heap", QueueHeap},
}

func TestKernelRunsEventsInOrder(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		var order []int
		k.ScheduleFunc(3*time.Second, func() { order = append(order, 3) })
		k.ScheduleFunc(1*time.Second, func() { order = append(order, 1) })
		k.ScheduleFunc(2*time.Second, func() { order = append(order, 2) })
		if err := k.Run(0); err != nil {
			t.Fatalf("%s: run: %v", q.name, err)
		}
		want := []int{1, 2, 3}
		for i, v := range want {
			if order[i] != v {
				t.Fatalf("%s: order = %v, want %v", q.name, order, want)
			}
		}
		if k.Now() != 3*time.Second {
			t.Fatalf("%s: now = %v, want 3s", q.name, k.Now())
		}
	}
}

func TestKernelFIFOAmongEqualTimestamps(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			k.ScheduleFunc(time.Second, func() { order = append(order, i) })
		}
		if err := k.Run(0); err != nil {
			t.Fatalf("%s: run: %v", q.name, err)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("%s: order = %v, want ascending", q.name, order)
			}
		}
	}
}

func TestKernelCancel(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		fired := false
		tm := k.NewTimer(func() { fired = true })
		tm.Reset(time.Second)
		tm.Stop()
		tm.Stop() // a second Stop is a no-op
		if err := k.Run(0); err != nil {
			t.Fatalf("%s: run: %v", q.name, err)
		}
		if fired {
			t.Fatalf("%s: stopped timer fired", q.name)
		}
	}
}

// TestCancelReclaimsQueueSpace is the tombstone-leak regression test: a
// long-lived workload that arms and stops a timer without ever firing it (an
// always-answered retransmission timeout) must not grow the queue. The seed
// kernel left canceled events queued until lazily popped, so this pattern
// grew Kernel.queue without bound.
func TestCancelReclaimsQueueSpace(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		keeper := k.NewTimer(func() {})
		keeper.Reset(time.Hour)
		rto := k.NewTimer(func() {})
		for i := 0; i < 100_000; i++ {
			rto.Reset(time.Minute + time.Duration(i)*time.Millisecond)
			rto.Stop()
			if p := k.Pending(); p != 1 {
				t.Fatalf("%s: Pending() = %d after %d arm/stop cycles, want 1", q.name, p, i+1)
			}
		}
		keeper.Stop()
		if p := k.Pending(); p != 0 {
			t.Fatalf("%s: Pending() = %d after stopping everything, want 0", q.name, p)
		}
	}
}

// TestPendingReportsLiveEvents pins the Pending contract: a stopped timer
// releases its slot immediately and is never counted.
func TestPendingReportsLiveEvents(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		a := k.NewTimer(func() {})
		a.Reset(time.Second)
		k.ScheduleFunc(2*time.Second, func() {})
		k.ScheduleFunc(3*time.Second, func() {})
		if p := k.Pending(); p != 3 {
			t.Fatalf("%s: Pending() = %d, want 3", q.name, p)
		}
		a.Stop()
		if p := k.Pending(); p != 2 {
			t.Fatalf("%s: Pending() = %d after one stop, want 2", q.name, p)
		}
	}
}

func TestKernelHorizonStopsClock(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		fired := false
		k.ScheduleFunc(10*time.Second, func() { fired = true })
		if err := k.Run(5 * time.Second); err != nil {
			t.Fatalf("%s: run: %v", q.name, err)
		}
		if fired {
			t.Fatalf("%s: event beyond horizon fired", q.name)
		}
		if k.Now() != 5*time.Second {
			t.Fatalf("%s: now = %v, want 5s", q.name, k.Now())
		}
	}
}

func TestKernelScheduleInsideEvent(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		var times []time.Duration
		k.ScheduleFunc(time.Second, func() {
			times = append(times, k.Now())
			k.ScheduleFunc(time.Second, func() { times = append(times, k.Now()) })
		})
		if err := k.Run(0); err != nil {
			t.Fatalf("%s: run: %v", q.name, err)
		}
		if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
			t.Fatalf("%s: times = %v", q.name, times)
		}
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		fired := false
		k.ScheduleFunc(-time.Second, func() { fired = true })
		k.Run(0)
		if !fired {
			t.Fatalf("%s: negative-delay event did not fire", q.name)
		}
		if k.Now() != 0 {
			t.Fatalf("%s: now = %v, want 0", q.name, k.Now())
		}
	}
}

func TestKernelRunUntil(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		count := 0
		for i := 1; i <= 10; i++ {
			k.ScheduleFunc(time.Duration(i)*time.Second, func() { count++ })
		}
		ok := k.RunUntil(0, func() bool { return count >= 4 })
		if !ok {
			t.Fatalf("%s: RunUntil did not satisfy cond", q.name)
		}
		if count != 4 {
			t.Fatalf("%s: count = %d, want 4", q.name, count)
		}
		if k.Now() != 4*time.Second {
			t.Fatalf("%s: now = %v, want 4s", q.name, k.Now())
		}
	}
}

// TestSplitRunMatchesOneRun pins the clock contract across run calls: a
// run to H cut into Run(t1), RunUntil(t2, never) and Run(H) fires the same
// events at the same times as one Run(H), and ends on the same clock and
// event count. t1 is a scheduled event's time and the workload ties events
// at one instant (the horizon included), so a cut that dropped or repeated
// either side of a tie would show in the trace.
func TestSplitRunMatchesOneRun(t *testing.T) {
	t.Parallel()
	const horizon = 2 * time.Second
	type rec struct {
		id int
		at time.Duration
	}
	// load schedules 60 events in ties of three at seeded instants, three
	// more at exactly the horizon, and follow-ups drawn as events fire: a
	// same-instant one for every fourth event and a later one for every
	// fifth. It returns the trace and the instant of the middle tie.
	load := func(k *Kernel) (*[]rec, time.Duration) {
		trace := &[]rec{}
		rng := k.Stream(0, PurposePeer)
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				*trace = append(*trace, rec{id, k.Now()})
				if id >= 1000 {
					return
				}
				if id%4 == 0 {
					k.ScheduleFunc(0, fire(1000+id))
				}
				if id%5 == 0 {
					k.ScheduleFunc(rng.Jitter(300*time.Millisecond), fire(2000+id))
				}
			}
		}
		var mid time.Duration
		for i := 0; i < 60; i += 3 {
			at := rng.Jitter(horizon)
			if i == 30 {
				mid = at
			}
			for j := i; j < i+3; j++ {
				k.ScheduleFuncAt(at, fire(j))
			}
		}
		for j := 60; j < 63; j++ {
			k.ScheduleFuncAt(horizon, fire(j))
		}
		return trace, mid
	}
	never := func() bool { return false }
	for _, q := range queueKinds {
		one := Options{Queue: q.kind}.NewKernel(9)
		want, _ := load(one)
		if err := one.Run(horizon); err != nil {
			t.Fatal(err)
		}

		if len(*want) < 80 || (*want)[len(*want)-1].at != horizon {
			t.Fatalf("%s: one run fired %d events, the last at %v; want the follow-ups and the events at %v",
				q.name, len(*want), (*want)[len(*want)-1].at, horizon)
		}

		split := Options{Queue: q.kind}.NewKernel(9)
		got, t1 := load(split)
		t2 := t1 + (horizon-t1)/2
		// cut checks the split run after a call ending at at: the clock is
		// there, and the events fired are the one run's up to at, inclusive.
		cut := func(call string, at time.Duration) {
			t.Helper()
			n := len(*got)
			if split.Now() != at || !slices.Equal(*got, (*want)[:n]) || (n < len(*want) && (*want)[n].at <= at) {
				t.Fatalf("%s: after %s the clock is %v (want %v) and %d events fired, not the one run's through %v",
					q.name, call, split.Now(), at, n, at)
			}
		}
		if err := split.Run(t1); err != nil {
			t.Fatal(err)
		}
		cut("Run(t1)", t1)
		if split.RunUntil(t2, never) {
			t.Fatalf("%s: RunUntil satisfied a condition that never holds", q.name)
		}
		cut("RunUntil(t2)", t2)
		if err := split.Run(horizon); err != nil {
			t.Fatal(err)
		}

		if !slices.Equal(*got, *want) {
			t.Fatalf("%s: split run fired %v, one run %v", q.name, *got, *want)
		}
		if split.Now() != one.Now() || one.Now() != horizon {
			t.Fatalf("%s: clocks: split %v, one run %v, want %v", q.name, split.Now(), one.Now(), horizon)
		}
		if split.EventsFired() != one.EventsFired() {
			t.Fatalf("%s: EventsFired: split %d, one run %d", q.name, split.EventsFired(), one.EventsFired())
		}
	}
}

func TestKernelDeterminism(t *testing.T) {
	t.Parallel()
	run := func(seed int64) []int64 {
		k := NewKernel(seed)
		rng := k.Stream(0, PurposePeer)
		var vals []int64
		for i := 0; i < 100; i++ {
			d := rng.Jitter(time.Second)
			k.ScheduleFunc(d, func() { vals = append(vals, int64(k.Now())) })
		}
		k.Run(0)
		return vals
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestScheduleBehindWheelCursor pins the cursor-monotonicity edge: a
// horizon-bounded Run peeks at a far-future event, which commits the wheel
// cursor forward; an event then scheduled between the horizon and that
// future tick lands behind the cursor and must still fire first.
func TestScheduleBehindWheelCursor(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		var order []int
		k.ScheduleFunc(10*time.Hour, func() { order = append(order, 2) })
		if err := k.Run(time.Second); err != nil {
			t.Fatalf("%s: run: %v", q.name, err)
		}
		k.ScheduleFunc(time.Second, func() { order = append(order, 1) }) // at ≈ 2s, far behind 10h
		if err := k.Run(0); err != nil {
			t.Fatalf("%s: run: %v", q.name, err)
		}
		if len(order) != 2 || order[0] != 1 || order[1] != 2 {
			t.Fatalf("%s: order = %v, want [1 2]", q.name, order)
		}
	}
}

func TestJitterZero(t *testing.T) {
	t.Parallel()
	rng := NewStream(7, 0, PurposePeer)
	if got := rng.Jitter(0); got != 0 {
		t.Fatalf("Jitter(0) = %v, want 0", got)
	}
	if got := rng.Jitter(-time.Second); got != 0 {
		t.Fatalf("Jitter(-1s) = %v, want 0", got)
	}
}

func TestEventTimeMonotonicProperty(t *testing.T) {
	t.Parallel()
	// Property: regardless of the scheduling pattern, observed event times
	// are non-decreasing.
	f := func(delays []uint16) bool {
		k := NewKernel(3)
		var seen []time.Duration
		for _, d := range delays {
			k.ScheduleFunc(time.Duration(d)*time.Millisecond, func() {
				seen = append(seen, k.Now())
			})
		}
		k.Run(0)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleFuncOrderingMatchesSchedule(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		var order []int
		k.NewTimer(func() { order = append(order, 1) }).Reset(time.Second)
		k.ScheduleFunc(time.Second, func() { order = append(order, 2) }) // FIFO tie-break
		k.ScheduleFuncAt(500*time.Millisecond, func() { order = append(order, 0) })
		k.ScheduleFunc(-time.Second, func() { order = append(order, -1) }) // clamped to now
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		want := []int{-1, 0, 1, 2}
		for i, v := range want {
			if order[i] != v {
				t.Fatalf("%s: order = %v, want %v", q.name, order, want)
			}
		}
	}
}

func TestScheduleFuncRecyclesEvents(t *testing.T) {
	t.Parallel()
	k := NewKernel(1)
	// A chain of pooled events: each firing returns its Event to the free
	// list, so the whole chain should cycle through O(1) records.
	const hops = 1000
	n := 0
	var hop func()
	hop = func() {
		n++
		if n < hops {
			k.ScheduleFunc(time.Millisecond, hop)
		}
	}
	k.ScheduleFunc(0, hop)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if n != hops {
		t.Fatalf("fired %d hops, want %d", n, hops)
	}
	if len(k.free) != 1 {
		t.Fatalf("free list holds %d events after a serial chain, want 1", len(k.free))
	}

	// Pooled events and timers interleave without disturbing each other, and
	// a timer's record never enters the free list.
	ran := 0
	tm := k.NewTimer(func() { ran += 100 })
	tm.Reset(time.Second)
	k.ScheduleFunc(time.Second, func() { ran++ })
	tm.Stop()
	k.Run(0)
	if ran != 1 {
		t.Fatalf("ran = %d, want only the pooled event (stopped timer skipped)", ran)
	}
	tm.Reset(time.Second)
	k.Run(0)
	if ran != 101 || len(k.free) != 1 {
		t.Fatalf("ran = %d with %d free records, want 101 and 1 (the re-armed timer fired, its record kept)", ran, len(k.free))
	}
}

// TestScheduleCallDoesNotAllocate: a call takes its place in the (time,
// sequence) order like any pooled event, hands fn its argument, and once the
// pool is warm costs no object — a pointer argument rides in the interface
// as it is.
func TestScheduleCallDoesNotAllocate(t *testing.T) {
	k := NewKernel(1)
	var order []int
	add := func(v any) { order = append(order, *v.(*int)) }
	one, two := 1, 2
	k.ScheduleFunc(time.Second, func() { order = append(order, 0) })
	k.ScheduleCall(time.Second, add, &one)
	k.ScheduleCall(0, add, &two)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 0, 1}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	n := 0
	count := func(v any) { *v.(*int)++ }
	allocs := testing.AllocsPerRun(1000, func() {
		k.ScheduleCall(time.Millisecond, count, &n)
		k.Step()
	})
	if allocs != 0 || n != 1001 {
		t.Fatalf("ScheduleCall+Step allocates %v/op and ran %d times, want 0 and 1001", allocs, n)
	}
}

func TestTimerLifecycle(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		fired := 0
		tm := k.NewTimer(func() { fired++ })
		if tm.Pending() {
			t.Fatalf("%s: new timer is pending", q.name)
		}

		// Reset replaces the previous deadline: one shot, at the later time.
		tm.Reset(time.Second)
		tm.Reset(3 * time.Second)
		if !tm.Pending() {
			t.Fatalf("%s: armed timer not pending", q.name)
		}
		k.Run(0)
		if fired != 1 || k.Now() != 3*time.Second {
			t.Fatalf("%s: fired=%d now=%v, want 1 at 3s", q.name, fired, k.Now())
		}
		if tm.Pending() {
			t.Fatalf("%s: timer still pending after firing", q.name)
		}

		// Stop disarms; the timer stays reusable.
		tm.Reset(time.Second)
		tm.Stop()
		tm.Stop() // idempotent
		k.Run(0)
		if fired != 1 {
			t.Fatalf("%s: stopped timer fired", q.name)
		}
		tm.Reset(time.Second)
		k.Run(0)
		if fired != 2 {
			t.Fatalf("%s: re-armed timer did not fire", q.name)
		}
	}
}

func TestTimerPeriodicReArm(t *testing.T) {
	t.Parallel()
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		var times []time.Duration
		var tm *Timer
		tm = k.NewTimer(func() {
			times = append(times, k.Now())
			if len(times) < 3 {
				tm.Reset(time.Second)
			}
		})
		tm.Reset(time.Second)
		k.Run(0)
		want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}
		if len(times) != len(want) {
			t.Fatalf("%s: times = %v, want %v", q.name, times, want)
		}
		for i := range want {
			if times[i] != want[i] {
				t.Fatalf("%s: times = %v, want %v", q.name, times, want)
			}
		}
	}
}

// TestTimerResetDoesNotAllocate pins the satellite contract: steady-state
// Reset of a live timer — the retransmission-timeout pattern — is 0 allocs.
func TestTimerResetDoesNotAllocate(t *testing.T) {
	for _, q := range queueKinds {
		k := Options{Queue: q.kind}.NewKernel(1)
		// A realistic surrounding population so the queue is not trivially
		// empty.
		for i := 0; i < 256; i++ {
			k.ScheduleFunc(time.Hour+time.Duration(i)*time.Second, func() {})
		}
		tm := k.NewTimer(func() {})
		for i := 0; i < 64; i++ {
			tm.Reset(time.Duration(i%7) * time.Millisecond)
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			i++
			tm.Reset(time.Duration(i%7) * time.Millisecond)
		})
		if allocs != 0 {
			t.Fatalf("%s: Timer.Reset allocates %v/op in steady state, want 0", q.name, allocs)
		}
	}
}

// TestWheelMatchesHeapUnderChurn is the equivalence property test: both
// backends, fed an identical randomized stream of schedules (pooled,
// exact-time ties, freshly armed timers), resets and stops of random timers
// (which drive queue.remove from arbitrary positions), and horizon-bounded
// runs, must fire the identical (event, time) sequence. The delay mix spans
// sub-tick ties, exact tick boundaries, and far-future deadlines that
// cascade through multiple wheel levels.
func TestWheelMatchesHeapUnderChurn(t *testing.T) {
	t.Parallel()
	type fireRec struct {
		id int
		at time.Duration
	}
	delays := []time.Duration{
		0, 1, 513, time.Microsecond, 333 * time.Microsecond,
		1 << tickBits, // exactly one tick
		time.Millisecond, 17 * time.Millisecond, 400 * time.Millisecond,
		time.Second, 19 * time.Second, 90 * time.Second,
		time.Hour, 26 * time.Hour, 40 * 24 * time.Hour,
	}
	run := func(seed int64, kind QueueKind) []fireRec {
		rng := rand.New(rand.NewSource(seed))
		k := Options{Queue: kind}.NewKernel(seed)
		var trace []fireRec
		var timers []*Timer
		nextID := 0
		record := func() func() {
			nextID++
			id := nextID
			return func() { trace = append(trace, fireRec{id, k.Now()}) }
		}
		for round := 0; round < 150; round++ {
			for i := 0; i < 12; i++ {
				switch op := rng.Intn(12); {
				case op < 5:
					tm := k.NewTimer(record())
					tm.Reset(delays[rng.Intn(len(delays))])
					timers = append(timers, tm)
				case op < 6:
					// Two events at the same absolute time: FIFO tie.
					at := k.Now() + delays[rng.Intn(len(delays))]
					k.ScheduleFuncAt(at, record())
					k.ScheduleFuncAt(at, record())
				case op < 8:
					k.ScheduleFunc(delays[rng.Intn(len(delays))], record())
				case op < 9:
					if len(timers) > 0 {
						timers[rng.Intn(len(timers))].Stop() // possibly fired: must be inert
					}
				case op < 11:
					if len(timers) == 0 || rng.Intn(4) == 0 {
						timers = append(timers, k.NewTimer(record()))
					}
					timers[rng.Intn(len(timers))].Reset(delays[rng.Intn(len(delays))])
				default:
					if len(timers) > 0 {
						timers[rng.Intn(len(timers))].Stop()
					}
				}
			}
			// Horizon-bounded drain: peeking at a far-future event commits
			// the wheel cursor forward, so later rounds schedule behind it.
			k.Run(k.Now() + delays[rng.Intn(len(delays))])
		}
		k.Run(0)
		return trace
	}
	for seed := int64(1); seed <= 6; seed++ {
		heapTrace := run(seed, QueueHeap)
		wheelTrace := run(seed, QueueWheel)
		if len(heapTrace) != len(wheelTrace) {
			t.Fatalf("seed %d: trace lengths diverged: heap %d, wheel %d",
				seed, len(heapTrace), len(wheelTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != wheelTrace[i] {
				t.Fatalf("seed %d: trace diverged at %d: heap %+v, wheel %+v",
					seed, i, heapTrace[i], wheelTrace[i])
			}
		}
		if len(heapTrace) == 0 {
			t.Fatalf("seed %d: churn fired no events; property is vacuous", seed)
		}
	}
}
