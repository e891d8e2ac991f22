// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives every experiment in this repository: a single virtual
// clock, a pending-event queue, and the trial seed every node's random
// streams derive from (Stream). Two runs with the same seed execute the same
// event trace, which makes experiments reproducible and testable.
//
// The queue is a hierarchical timer wheel by default (O(1) schedule and
// cancel; see wheel.go), with the reference binary heap selectable per
// kernel through Options. Both orderings are total — events fire strictly
// by (time, sequence) — so the two backends produce byte-identical traces;
// the golden-trace suite in internal/experiment enforces that for every
// registered scenario.
package sim

import "time"

// event is one scheduled callback record. Events fire in timestamp order;
// ties break on sequence number (FIFO among equal timestamps) so execution
// order is fully deterministic regardless of the queue backend. The record
// never leaves the package: ScheduleFunc's records are recycled through the
// kernel's free list the moment they fire, and a Timer embeds its own.
type event struct {
	at  time.Duration
	seq uint64
	// index is the event's position inside its queue container (heap slot or
	// wheel-bucket position); -1 when the event is not queued.
	index int
	// slot locates the wheel bucket holding the event (level*wheelSlots+slot,
	// or curSlot for the wheel's current-tick heap). Unused by the heap.
	slot int32
	// timer marks a record embedded in a Timer, which owns it for its whole
	// lifetime; the kernel never recycles it.
	timer bool
	fn    func()
}

// eventQueue is the pending-event store. Implementations keep a total order
// by (at, seq): pop and peek always yield the minimum. remove must only be
// called with a currently queued event. The queue is concrete (*event only)
// on purpose: the seed implementation went through container/heap's `any`
// interface and silently dropped a failed type assertion on Push, a
// programming error that vanished an event instead of failing loudly.
type eventQueue interface {
	push(*event)
	pop() *event
	peek() *event
	remove(*event)
	len() int
}

// QueueKind selects the pending-event queue implementation.
type QueueKind int32

const (
	// QueueWheel is the hierarchical timer wheel: O(1) schedule and cancel,
	// amortized O(1) pop. The zero value, and what NewKernel builds.
	//lint:ignore unreferenced the zero value's name, which TestGoldenZeroEngineIsProduction spells out
	QueueWheel QueueKind = iota
	// QueueHeap is the reference binary heap the wheel must reproduce
	// byte-for-byte, kept for the golden-trace equivalence suite and the
	// old-vs-new BenchmarkKernelChurn comparison.
	QueueHeap
)

// Options selects which of the retained reference implementations a kernel
// is built from. The zero value is the production engine — the timer wheel
// — and is what NewKernel and NewShardedKernel build. Every choice is fixed at construction and byte-identical to
// production by contract (the golden suites hold each reference against
// it), so the value decides speed, never results. There is deliberately no
// package-level default to flip: a kernel is what its constructor was
// handed.
type Options struct {
	// Queue is the pending-event store of the kernel.
	Queue QueueKind
}

// Kernel is a discrete-event simulation engine. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now   time.Duration
	queue eventQueue
	kind  QueueKind
	seq   uint64
	seed  int64
	fired uint64
	// free recycles event records so hot paths that schedule one event per
	// frame (phy transmissions, jittered sends) do not allocate per call.
	free []*event
}

// NewKernel returns a production kernel (Options{}: the timer wheel) of the
// trial seeded with seed.
func NewKernel(seed int64) *Kernel { return Options{}.NewKernel(seed) }

// NewKernel returns a kernel on o.Queue of the trial seeded with seed.
func (o Options) NewKernel(seed int64) *Kernel {
	k := &Kernel{seed: seed, kind: o.Queue}
	if o.Queue == QueueHeap {
		k.queue = &heapQueue{}
	} else {
		k.queue = &wheelQueue{}
	}
	return k
}

// Queue reports which pending-event store the kernel was built on.
//
//lint:ignore unreferenced TestGoldenWorldBuildsTheEngineItIsHanded asks each kernel which queue it runs on
func (k *Kernel) Queue() QueueKind { return k.kind }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Stream returns the random stream of one node for one purpose, derived from
// the trial seed (NewStream). The kernel holds no generator of its own —
// events tie-break on sequence numbers. Model code keeps the stream by value
// and draws all its randomness from it.
func (k *Kernel) Stream(node int, purpose Purpose) Stream {
	return NewStream(k.seed, node, purpose)
}

// EventsFired returns the number of events executed so far.
//
//lint:ignore unreferenced TestGoldenDAPESTrialResults and TestGoldenBaselineTrialResults pin it per trial
func (k *Kernel) EventsFired() uint64 { return k.fired }

// Pending returns the number of live events currently queued. A stopped
// Timer releases its queue slot immediately, so it is never counted.
//
//lint:ignore unreferenced core.TestStopDrainsPending and multihop.TestIdlePureForwarderArmsNothing pin Pending() == 0
func (k *Kernel) Pending() int { return k.queue.len() }

// ScheduleFunc enqueues fn to run after delay (relative to Now). A negative
// delay is clamped to zero. The event cannot be canceled, which is what lets
// the kernel recycle its record through the free list the moment it fires,
// so a warm kernel schedules without allocating. A callback that must be
// canceled or rescheduled is a Timer (see NewTimer).
func (k *Kernel) ScheduleFunc(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.ScheduleFuncAt(k.now+delay, fn)
}

// ScheduleFuncAt enqueues fn to run at absolute virtual time at. Times in
// the past are clamped to Now.
func (k *Kernel) ScheduleFuncAt(at time.Duration, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		ev.at, ev.seq, ev.fn = at, k.seq, fn
	} else {
		ev = &event{at: at, seq: k.seq, index: -1, fn: fn}
	}
	k.queue.push(ev)
}

// Schedule is ScheduleFunc. It survives only because the benchmark
// harness's probes call it; new code calls ScheduleFunc.
func (k *Kernel) Schedule(delay time.Duration, fn func()) { k.ScheduleFunc(delay, fn) }

// Step executes the next pending event, if any, and reports whether one ran.
func (k *Kernel) Step() bool {
	ev := k.queue.pop()
	if ev == nil {
		return false
	}
	k.now = ev.at
	k.fired++
	fn := ev.fn
	if !ev.timer {
		// Recycle before running fn: the callback may itself schedule events
		// and reuse this record immediately.
		ev.fn = nil
		k.free = append(k.free, ev)
	}
	fn()
	return true
}

// Run executes events until the queue drains or the horizon is exceeded. A
// zero horizon means no time limit. When a horizon is given, the clock
// always advances to it (even if the queue drains earlier), so successive
// Run calls model contiguous stretches of virtual time. It always returns
// nil.
func (k *Kernel) Run(horizon time.Duration) error {
	for k.queue.len() > 0 {
		next := k.queue.peek()
		if horizon > 0 && next.at > horizon {
			k.now = horizon
			return nil
		}
		k.Step()
	}
	if horizon > k.now {
		k.now = horizon
	}
	return nil
}

// RunUntil executes events while cond returns false, stopping as soon as it
// returns true (checked after every event) or when the queue drains or the
// horizon passes. It reports whether cond was satisfied. Like Run, a run
// that ends unsatisfied advances the clock to a given horizon.
func (k *Kernel) RunUntil(horizon time.Duration, cond func() bool) bool {
	if cond() {
		return true
	}
	for k.queue.len() > 0 {
		next := k.queue.peek()
		if horizon > 0 && next.at > horizon {
			k.now = horizon
			return false
		}
		k.Step()
		if cond() {
			return true
		}
	}
	if horizon > k.now {
		k.now = horizon
	}
	return false
}

// runWindow executes every pending event with timestamp strictly before
// until, leaving the clock at the last executed event. It is the building
// block of sharded lockstep execution (see ShardedKernel): all events
// inside [now, until) run, and the coordinator advances the clock to the
// barrier afterwards via advanceTo.
func (k *Kernel) runWindow(until time.Duration) {
	for {
		ev := k.queue.peek()
		if ev == nil || ev.at >= until {
			return
		}
		k.Step()
	}
}

// advanceTo moves the clock forward to t; it never moves it backwards.
func (k *Kernel) advanceTo(t time.Duration) {
	if t > k.now {
		k.now = t
	}
}
