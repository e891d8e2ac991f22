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

// Config parameterizes the backoff algorithm.
type Config struct {
	// Window is the default transmission window divided by the priority
	// fraction in the collision-free regime. Paper experiments use 20 ms.
	Window time.Duration
	// Slot is the duration of one backoff slot. The paper sizes slots from
	// the average transmitted packet size and channel state; the experiment
	// harness sets it to the bitmap-packet airtime.
	Slot time.Duration
	// Groups is the number of priority groups slots are divided into. The
	// paper's example uses 2.
	Groups int
	// MaxDelayFactor caps the collision-free delay at MaxDelayFactor*Window
	// so a peer holding almost nothing still transmits eventually. Default
	// 10.
	MaxDelayFactor int
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 20 * time.Millisecond
	}
	if c.Slot == 0 {
		c.Slot = 2 * time.Millisecond
	}
	if c.Groups == 0 {
		c.Groups = 2
	}
	if c.MaxDelayFactor == 0 {
		c.MaxDelayFactor = 10
	}
	return c
}

// Rand is what a Backoff draws its slot from: the peer's *sim.Stream in the
// simulation, a *math/rand.Rand anywhere else.
type Rand interface {
	Intn(n int) int
}

// Backoff is one peer's per-encounter PEBA state. Priority groups and slot
// counts are created per encounter (Section IV-F); call Reset when an
// encounter ends.
type Backoff struct {
	cfg        Config
	rng        Rand
	collisions int
}

// New returns a Backoff drawing randomness from rng.
func New(cfg Config, rng Rand) *Backoff {
	return &Backoff{cfg: cfg.withDefaults(), rng: rng}
}

// Config returns the effective configuration.
func (b *Backoff) Config() Config { return b.cfg }

// Collisions returns the number of collisions observed this encounter.
func (b *Backoff) Collisions() int { return b.collisions }

// Reset clears collision state for a new encounter.
func (b *Backoff) Reset() { b.collisions = 0 }

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
// Collision-free: delay = Window / frac (capped). After c collisions: the
// 2^c slots are split into Groups priority groups; the peer picks a uniform
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
		return b.linearDelay(frac)
	}
	return b.slotDelay(frac)
}

func (b *Backoff) linearDelay(frac float64) time.Duration {
	maxDelay := time.Duration(b.cfg.MaxDelayFactor) * b.cfg.Window
	if frac <= 0 {
		return maxDelay
	}
	d := time.Duration(float64(b.cfg.Window) / frac)
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
	k := b.cfg.Groups
	if k > L {
		k = L
	}
	n := L / k // slots per group
	if n < 1 {
		n = 1
	}
	group := k - 1 - int(frac*float64(k))
	if group >= k {
		group = k - 1
	}
	if group < 0 {
		group = 0
	}
	lo := group * n
	slot := lo + b.rng.Intn(n)
	return time.Duration(slot) * b.cfg.Slot
}

// ExpectedDelay returns the paper's analytical average delay for a peer to
// successfully transmit its bitmap: T_delay = (L_avg − 1)/2 · τ with
// L_avg = (n − 1)/2, where n is the slots per group and τ the slot duration
// (Section IV-F, following Zhu et al.).
func ExpectedDelay(slotsPerGroup int, slot time.Duration) time.Duration {
	if slotsPerGroup < 1 {
		return 0
	}
	lAvg := float64(slotsPerGroup-1) / 2
	d := (lAvg - 1) / 2 * float64(slot)
	if d < 0 {
		return 0
	}
	return time.Duration(d)
}

// LinearBackoff is the ablation baseline the paper compares PEBA against
// ("without PEBA"): pure linear window division with no collision response,
// which collides frequently when peers hold similar data.
type LinearBackoff struct {
	cfg Config
}

// NewLinear returns the linear-only scheduler.
func NewLinear(cfg Config) *LinearBackoff {
	return &LinearBackoff{cfg: cfg.withDefaults()}
}

// Delay returns Window/frac regardless of collision history.
func (l *LinearBackoff) Delay(frac float64) time.Duration {
	b := Backoff{cfg: l.cfg}
	return b.linearDelay(frac)
}
