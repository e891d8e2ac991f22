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

// Event kinds: who owns the record and when the kernel may recycle it.
const (
	// kindOneShot events come from Schedule/ScheduleAt: a Handle escapes to
	// the caller, so recycling is guarded by the record's generation counter.
	kindOneShot = iota
	// kindPooled events come from ScheduleFunc/ScheduleFuncAt: no handle
	// escapes, so the record is recycled the moment it fires.
	kindPooled
	// kindTimer events are embedded in a Timer, which owns the record for
	// its whole lifetime; the kernel never recycles them.
	kindTimer
)

// Event is one scheduled callback record. Events fire in timestamp order;
// ties break on sequence number (FIFO among equal timestamps) so execution
// order is fully deterministic regardless of the queue backend. Callers
// never hold an *Event directly — Schedule returns a generation-checked
// Handle, and Timers embed their record.
type Event struct {
	at  time.Duration
	seq uint64
	// index is the event's position inside its queue container (heap slot or
	// wheel-bucket position); -1 when the event is not queued.
	index int
	// slot locates the wheel bucket holding the event (level*wheelSlots+slot,
	// or curSlot for the wheel's current-tick heap). Unused by the heap.
	slot     int32
	kind     uint8
	canceled bool
	// gen is bumped when the event fires and when the record is reused from
	// the free list, so a Handle held across either boundary goes inert
	// instead of acting on an unrelated event.
	gen uint64
	fn  func()
	k   *Kernel
}

// Handle refers to one scheduled occurrence of an event. The zero Handle is
// valid and inert. Handles stay safe after the event fires or is canceled:
// the kernel recycles event records aggressively, and the generation check
// turns any operation on a stale handle into a no-op.
type Handle struct {
	ev  *Event
	gen uint64
}

// Cancel prevents the event from firing and releases its queue slot
// immediately (no tombstone is left behind). Canceling an already-fired or
// already-canceled event is a no-op.
func (h Handle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		k := ev.k
		k.queue.remove(ev)
		ev.fn = nil
		k.free = append(k.free, ev)
	}
}

// eventQueue is the pending-event store. Implementations keep a total order
// by (at, seq): pop and peek always yield the minimum. remove must only be
// called with a currently queued event. The queue is concrete (*Event only)
// on purpose: the seed implementation went through container/heap's `any`
// interface and silently dropped a failed type assertion on Push, a
// programming error that vanished an event instead of failing loudly.
type eventQueue interface {
	push(*Event)
	pop() *Event
	peek() *Event
	remove(*Event)
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
	// frame (phy transmissions) or cancel/reschedule per message
	// (retransmission timeouts) do not allocate per call.
	free []*Event
	// calls recycles ScheduleCall records.
	calls []*call
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

// Pending returns the number of live events currently queued. Canceled
// events release their queue slot immediately, so they are never counted.
//
//lint:ignore unreferenced core.TestStopDrainsPending and multihop.TestIdlePureForwarderArmsNothing pin Pending() == 0
func (k *Kernel) Pending() int { return k.queue.len() }

// Schedule enqueues fn to run after delay (relative to Now). A negative delay
// is clamped to zero. The returned Handle may be used to cancel the callback.
// Call sites that cancel or reschedule the same logical timer repeatedly
// should hold a Timer (see NewTimer) instead of scheduling per shot.
func (k *Kernel) Schedule(delay time.Duration, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt enqueues fn to run at absolute virtual time at. Times in the
// past are clamped to Now.
func (k *Kernel) ScheduleAt(at time.Duration, fn func()) Handle {
	ev := k.enqueue(at, kindOneShot, fn)
	return Handle{ev: ev, gen: ev.gen}
}

// ScheduleFunc enqueues fn to run after delay like Schedule, but returns no
// cancel handle: the event cannot be canceled, which is what lets the kernel
// recycle it through the free list the moment it fires. Hot paths that
// schedule one event per frame and never cancel (a phy transmission's
// completion, jittered sends) use this to avoid allocating an Event per
// call.
func (k *Kernel) ScheduleFunc(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	k.ScheduleFuncAt(k.now+delay, fn)
}

// ScheduleFuncAt is ScheduleAt without a cancel handle; see ScheduleFunc.
func (k *Kernel) ScheduleFuncAt(at time.Duration, fn func()) {
	k.enqueue(at, kindPooled, fn)
}

// ScheduleCall enqueues fn(arg) to run after delay, like ScheduleFunc. It is
// for a callback about one record of many: with fn a top-level function and
// arg a pointer, a call allocates nothing, where a method value or closure
// over the record would allocate per call. The pair rides in a record pooled
// on the kernel, whose event func is built once.
func (k *Kernel) ScheduleCall(delay time.Duration, fn func(any), arg any) {
	var c *call
	if n := len(k.calls); n > 0 {
		c = k.calls[n-1]
		k.calls[n-1] = nil
		k.calls = k.calls[:n-1]
	} else {
		c = &call{k: k}
		c.fire = c.run
	}
	c.fn, c.arg = fn, arg
	k.ScheduleFunc(delay, c.fire)
}

// call is one pending ScheduleCall.
type call struct {
	k    *Kernel
	fn   func(any)
	arg  any
	fire func()
}

// run returns the record to the pool before calling fn, which may schedule
// calls of its own.
func (c *call) run() {
	k, fn, arg := c.k, c.fn, c.arg
	c.fn, c.arg = nil, nil
	k.calls = append(k.calls, c)
	fn(arg)
}

// enqueue assigns the next sequence number and pushes a recycled (or fresh)
// event record.
func (k *Kernel) enqueue(at time.Duration, kind uint8, fn func()) *Event {
	if at < k.now {
		at = k.now
	}
	k.seq++
	var ev *Event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		ev.gen++ // any handle from the record's previous life goes inert
		ev.at, ev.seq, ev.kind, ev.canceled, ev.fn = at, k.seq, kind, false, fn
	} else {
		ev = &Event{at: at, seq: k.seq, index: -1, kind: kind, fn: fn, k: k}
	}
	k.queue.push(ev)
	return ev
}

// Step executes the next pending event, if any, and reports whether one ran.
func (k *Kernel) Step() bool {
	ev := k.queue.pop()
	if ev == nil {
		return false
	}
	k.now = ev.at
	k.fired++
	fn := ev.fn
	if ev.kind != kindTimer {
		// Recycle before running fn: the callback may itself schedule events
		// and reuse this record immediately. Bumping gen first makes any
		// still-held Handle inert before the record can change identity.
		ev.gen++
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
