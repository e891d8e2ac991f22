package sim

import "time"

// Timer is the kernel's one cancelable callback: one event record and one
// closure for the timer's whole lifetime, however many times it is armed.
// Protocol layers whose workload is "schedule, then usually cancel or
// reschedule" — retransmission timeouts, Interest lifetimes, periodic ticks
// — hold a Timer; steady-state Reset performs zero allocations.
//
// A Timer is single-shot per arming: Reset schedules (or reschedules) the
// callback, firing clears the pending state, and periodic users re-arm from
// inside the callback. Like ScheduleFunc, a Reset consumes one kernel
// sequence number, so the two share one (time, sequence) order.
//
// Timers are not safe for concurrent use; like the Kernel, they belong to
// the single simulation goroutine.
type Timer struct {
	k  *Kernel
	ev event
}

// NewTimer returns an unarmed timer that runs fn each time an armed deadline
// is reached.
func (k *Kernel) NewTimer(fn func()) *Timer {
	t := &Timer{k: k}
	t.ev = event{index: -1, timer: true, fn: fn}
	return t
}

// Reset (re)arms the timer to fire after delay (relative to Now), replacing
// any pending deadline. A negative delay is clamped to zero.
func (t *Timer) Reset(delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	t.ResetAt(t.k.now + delay)
}

// ResetAt (re)arms the timer to fire at absolute virtual time at, replacing
// any pending deadline. Times in the past are clamped to Now.
func (t *Timer) ResetAt(at time.Duration) {
	k := t.k
	if at < k.now {
		at = k.now
	}
	if t.ev.index >= 0 {
		k.queue.remove(&t.ev)
	}
	k.seq++
	t.ev.at = at
	t.ev.seq = k.seq
	k.queue.push(&t.ev)
}

// Stop disarms the timer, releasing its queue slot immediately. Stopping an
// unarmed timer is a no-op. The timer remains usable: Reset arms it again.
func (t *Timer) Stop() {
	if t.ev.index >= 0 {
		t.k.queue.remove(&t.ev)
	}
}

// Pending reports whether the timer is armed (scheduled and not yet fired).
// It is false inside the timer's own callback unless the callback re-armed
// it.
func (t *Timer) Pending() bool { return t.ev.index >= 0 }
