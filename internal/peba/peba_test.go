package peba

import (
	"math/rand"
	"testing"
	"time"
)

func newBackoff(seed int64) *Backoff {
	return New(Config{}, rand.New(rand.NewSource(seed)))
}

// TestDefaults: an empty Config runs at the paper's settings — a 20 ms
// window capped at 10 windows, and 2 ms slots in 2 priority groups.
func TestDefaults(t *testing.T) {
	t.Parallel()
	b := newBackoff(1)
	if got := b.Delay(1.0); got != 20*time.Millisecond {
		t.Fatalf("Delay(1.0) = %v, want the 20 ms window", got)
	}
	if got := b.Delay(0); got != 200*time.Millisecond {
		t.Fatalf("Delay(0) = %v, want the 200 ms cap", got)
	}
	b.OnCollision()
	for i := 0; i < 50; i++ {
		if got := b.Delay(0.25); got != 2*time.Millisecond {
			t.Fatalf("low priority after one collision = %v, want the second 2 ms slot", got)
		}
	}
}

func TestLinearPrioritization(t *testing.T) {
	t.Parallel()
	b := newBackoff(1)
	full := b.Delay(1.0)
	half := b.Delay(0.5)
	tenth := b.Delay(0.1)
	if full != window {
		t.Fatalf("Delay(1.0) = %v, want window", full)
	}
	if half != 2*window {
		t.Fatalf("Delay(0.5) = %v, want 2*window", half)
	}
	if !(full < half && half < tenth) {
		t.Fatalf("priority ordering broken: %v %v %v", full, half, tenth)
	}
}

func TestLinearDelayCapped(t *testing.T) {
	t.Parallel()
	b := newBackoff(1)
	const limit = maxDelayFactor * window
	if got := b.Delay(0); got != limit {
		t.Fatalf("Delay(0) = %v, want cap", got)
	}
	if got := b.Delay(0.0001); got != limit {
		t.Fatalf("tiny frac = %v, want cap", got)
	}
	// Out-of-range fracs are clamped.
	if got := b.Delay(2.0); got != b.Delay(1.0) {
		t.Fatalf("frac>1 not clamped: %v", got)
	}
	if got := b.Delay(-1); got != limit {
		t.Fatalf("frac<0 not clamped: %v", got)
	}
}

func TestSlotsDoubleOnCollision(t *testing.T) {
	t.Parallel()
	b := newBackoff(1)
	if b.Slots() != 1 {
		t.Fatalf("initial slots = %d", b.Slots())
	}
	b.OnCollision()
	if b.Slots() != 2 || b.Collisions() != 1 {
		t.Fatalf("after 1 collision: slots=%d", b.Slots())
	}
	b.OnCollision()
	if b.Slots() != 4 {
		t.Fatalf("after 2 collisions: slots=%d", b.Slots())
	}
	b.Reset()
	if b.Slots() != 1 || b.Collisions() != 0 {
		t.Fatal("reset did not clear collisions")
	}
}

func TestSlotGroupsPreservePriority(t *testing.T) {
	t.Parallel()
	// After two collisions there are 4 slots in 2 groups. High-priority
	// peers (frac >= 0.5) must always draw slots 0-1; low-priority peers
	// slots 2-3 — exactly the paper's B/D example.
	b := newBackoff(3)
	b.OnCollision()
	b.OnCollision()
	for i := 0; i < 200; i++ {
		high := b.Delay(0.75)
		low := b.Delay(0.25)
		hs, ls := int(high/slot), int(low/slot)
		if hs < 0 || hs > 1 {
			t.Fatalf("high-priority slot %d outside group 0", hs)
		}
		if ls < 2 || ls > 3 {
			t.Fatalf("low-priority slot %d outside group 1", ls)
		}
	}
}

func TestBoundaryFractionAtLeastHalfIsFirstGroup(t *testing.T) {
	t.Parallel()
	// "Peers that have, at least, half of the missing packets randomly
	// select a slot in the first group."
	b := newBackoff(4)
	b.OnCollision() // 2 slots, 1 per group
	for i := 0; i < 50; i++ {
		if got := b.Delay(0.5); got != 0 {
			t.Fatalf("frac=0.5 delay = %v, want slot 0", got)
		}
		if got := b.Delay(0.49); got != slot {
			t.Fatalf("frac=0.49 delay = %v, want slot 1", got)
		}
	}
}

func TestSingleSlotAfterOneCollisionWithManyGroups(t *testing.T) {
	t.Parallel()
	// The first collision leaves as few slots as there are groups: one
	// slot per group, so every delay is a whole slot within the range.
	b := newBackoff(5)
	b.OnCollision()
	d := b.Delay(1.0)
	if d < 0 || d > slot {
		t.Fatalf("delay = %v out of slot range", d)
	}
}

func TestDelayDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	mk := func() []time.Duration {
		b := newBackoff(9)
		b.OnCollision()
		b.OnCollision()
		var out []time.Duration
		for i := 0; i < 20; i++ {
			out = append(out, b.Delay(0.6))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PEBA delays nondeterministic for fixed seed")
		}
	}
}
