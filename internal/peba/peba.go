// Package peba implements the Priority-based Exponential Backoff Algorithm
// of Section IV-F, which schedules bitmap (data advertisement) transmissions
// during multi-peer encounters.
//
// Before any collision, peers prioritize linearly: the transmission delay is
// the default window divided by the fraction of packets the peer holds that
// are missing from all previously transmitted bitmaps, so the most useful
// bitmap is sent first. After a collision, PEBA doubles the slot count and
// partitions the slots into priority groups; peers holding more of the
// still-missing packets draw a random slot from an earlier group, preserving
// the prioritization semantics while dispersing transmissions.
package peba

import "time"

// The backoff's timing, held at one setting in every run.
const (
	// window is the default transmission window divided by the priority
	// fraction in the collision-free regime. Paper experiments use 20 ms.
	window = 20 * time.Millisecond
	// slot is the duration of one backoff slot. The paper sizes slots from
	// the average transmitted packet size and channel state.
	slot = 2 * time.Millisecond
	// groups is the number of priority groups slots are divided into. The
	// paper's example uses 2.
	groups = 2
	// maxDelayFactor caps the collision-free delay at maxDelayFactor*window
	// so a peer holding almost nothing still transmits eventually.
	maxDelayFactor = 10
)

// Config parameterizes the backoff algorithm. It has no fields: every
// setting is a package constant.
type Config struct{}

// Rand is what a Backoff draws its slot from: the peer's *sim.Stream in the
// simulation, a *math/rand.Rand anywhere else.
type Rand interface {
	Intn(n int) int
}

// Backoff is one peer's per-encounter PEBA state. Priority groups and slot
// counts are created per encounter (Section IV-F); call Reset when an
// encounter ends.
type Backoff struct {
	rng        Rand
	collisions int
}

// New returns a Backoff drawing randomness from rng.
func New(_ Config, rng Rand) *Backoff {
	return &Backoff{rng: rng}
}

// OnCollision records a detected collision, doubling the slot count used by
// subsequent Delay calls.
func (b *Backoff) OnCollision() { b.collisions++ }

// Slots returns the current total number of transmission slots: 2^collisions
// (1 before any collision, 2 after the first, 4 after the second, ...).
func (b *Backoff) Slots() int {
	s := 1 << uint(b.collisions)
	if s < 1 {
		return 1
	}
	return s
}

// Delay returns the transmission delay for a peer whose priority fraction is
// frac ∈ [0, 1]: the share of currently missing packets (packets absent from
// all previously transmitted bitmaps) that this peer can supply. For the
// first bitmap of an encounter, frac is the peer's share of all collection
// packets, so the peer with the most data wins (Section IV-F).
//
// Collision-free: delay = window / frac (capped). After c collisions: the
// 2^c slots are split into groups priority groups; the peer picks a uniform
// random slot within its group, where group 0 (earliest) holds peers with the
// highest frac.
func (b *Backoff) Delay(frac float64) time.Duration {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	if b.collisions == 0 {
		return linearDelay(frac)
	}
	return b.slotDelay(frac)
}

func linearDelay(frac float64) time.Duration {
	const maxDelay = maxDelayFactor * window
	if frac <= 0 {
		return maxDelay
	}
	d := time.Duration(float64(window) / frac)
	if d > maxDelay {
		return maxDelay
	}
	return d
}

// slotDelay maps frac to a priority group and draws a random slot in it.
// Group g (0-based, 0 = highest priority) covers frac in
// ((k-1-g)/k, (k-g)/k]; e.g. with k=2, frac ≥ 1/2 → group 0 per the paper's
// "at least half of the missing packets" rule.
func (b *Backoff) slotDelay(frac float64) time.Duration {
	L := b.Slots()
	k := min(groups, L)
	n := L / k // slots per group
	group := max(k-1-int(frac*float64(k)), 0)
	return time.Duration(group*n+b.rng.Intn(n)) * slot
}
