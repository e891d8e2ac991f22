package multihop

import (
	"slices"
	"testing"
	"time"

	"dapes/internal/sim"
)

// noncePool is what the nonce-table checks note and ask about: for each index
// size a table of up to 32 ring entries has, four nonces whose probes start
// at its last cell and so collide and wrap, then small and large values.
func noncePool() []uint32 {
	var pool []uint32
	for n := ringFirst; n <= 32; n *= 2 {
		m, found := 3*n, 0
		for x := uint32(1); found < 4; x++ {
			if home(nonceHash(x), m) == m-1 && !slices.Contains(pool, x) {
				pool = append(pool, x)
				found++
			}
		}
	}
	for x := uint32(0); len(pool) < 32; x++ {
		if !slices.Contains(pool, x*0x10001) {
			pool = append(pool, x*0x10001)
		}
	}
	return pool
}

// checkNonceOps runs one operation per byte against a started relay and
// against the map from nonce to its last note that the table replaces, and
// after each operation asks both about every pooled nonce. The top three
// bits pick the operation: note (three values in eight), a clock step of
// 1 ns, of dupWindow-1, or of 0 to 3.1 s in 100 ms, or Reset; the low five
// pick the nonce or the step. After a note the ring holds exactly the notes
// since the last Reset that are younger than dupWindow.
func checkNonceOps(t testing.TB, ops []byte) {
	t.Helper()
	rig := newRelayRig(1)
	k, r := rig.k, &rig.r
	pool := noncePool()
	model := map[uint32]time.Duration{}
	var notes []time.Duration
	for i, b := range ops {
		low := int(b & 31)
		switch b >> 5 {
		case 0, 1, 2:
			r.noteNonce(pool[low])
			model[pool[low]] = k.Now()
			notes = append(notes, k.Now())
			for k.Now()-notes[0] >= dupWindow {
				notes = notes[1:]
			}
			if int(r.nonces.count) != len(notes) {
				t.Fatalf("op %d: the ring holds %d entries, want the %d notes younger than %v", i, r.nonces.count, len(notes), dupWindow)
			}
		case 3:
			k.Run(k.Now() + 1)
		case 4:
			k.Run(k.Now() + dupWindow - 1)
		case 5, 6:
			k.Run(k.Now() + time.Duration(low)*100*time.Millisecond)
		case 7:
			r.Reset()
			clear(model)
			notes = notes[:0]
		}
		live := 0
		for _, x := range pool {
			at, ok := model[x]
			want := ok && k.Now()-at < dupWindow
			if want {
				live++
			}
			if got := r.Heard(x); got != want {
				t.Fatalf("op %d at %v: Heard(%d) = %v, want %v (noted %v, at %v)", i, k.Now(), x, got, want, ok, at)
			}
		}
		if _, _, got := r.TableSizes(); got != live {
			t.Fatalf("op %d at %v: TableSizes counts %d nonces, want %d", i, k.Now(), got, live)
		}
	}
}

// TestNonceTableMatchesMap: the ring and its index answer Heard and
// TableSizes as the map they replace did, over ages of exactly dupWindow and
// one nanosecond less, re-noted nonces, nonces whose probes collide and wrap
// in the index, expiry across the ring's end, growth, and Reset.
func TestNonceTableMatchesMap(t *testing.T) {
	t.Parallel()
	const (
		note  = 0 << 5
		tick  = 3 << 5
		short = 4 << 5 // dupWindow - 1
		reset = 7 << 5
	)
	step := func(d time.Duration) byte { return 5<<5 | byte(d/(100*time.Millisecond)) }
	fixed := map[string][]byte{
		// Three colliding nonces, then the first expires: the other two are
		// shifted back over its cell and must still be found.
		"backward shift": {note | 0, note | 1, step(time.Second), note | 2, step(time.Second), note | 20, tick, note | 21},
		// Noted again while live: the index moves to the new entry, and the
		// old one expires from the head without taking the nonce along.
		"re-note": {note | 0, step(time.Second), note | 0, step(time.Second), note | 1, step(time.Second), note | 2},
		// Heard at one nanosecond under dupWindow, then at exactly dupWindow.
		"window edge": {note | 3, short, tick, note | 3, short, note | 7, tick},
		// Forty notes in one window grow the ring from four to 64 entries;
		// a steady trickle then wraps it; Reset empties it.
		"growth": append(append(fillOps(40, note), fillOps(80, step(300*time.Millisecond))...), reset, note|9),
	}
	for name, ops := range fixed {
		t.Run(name, func(t *testing.T) { checkNonceOps(t, ops) })
	}
	rng := sim.NewStream(52, 0, 0)
	ops := make([]byte, 400)
	for range 200 {
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		checkNonceOps(t, ops)
	}
}

// fillOps returns n operations: op on the pooled nonces in turn when op is a
// note, op itself otherwise, alternating with a note when it is a step.
func fillOps(n int, op byte) []byte {
	out := make([]byte, 0, n)
	for i := range n {
		if op>>5 <= 2 {
			out = append(out, op|byte(i%32))
		} else if i%2 == 0 {
			out = append(out, op)
		} else {
			out = append(out, byte(i%32))
		}
	}
	return out
}

// FuzzNonceTable runs arbitrary operation sequences (checkNonceOps) against
// the map model.
func FuzzNonceTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0x80, 0x60, 0})
	f.Add(fillOps(40, 0))
	f.Fuzz(func(t *testing.T, ops []byte) { checkNonceOps(t, ops) })
}

// TestNonceDedupDoesNotAllocate: a relay that has heard a steady Interest
// rate for a few duplicate windows dedups each further Interest, every one
// heard twice, and draws a nonce of its own without allocating.
func TestNonceDedupDoesNotAllocate(t *testing.T) {
	rig := newRelayRig(12)
	k, r := rig.k, &rig.r
	nonce := uint32(0)
	hear := func() {
		k.Run(k.Now() + 5*time.Millisecond)
		nonce++
		for range 2 {
			if !r.Heard(nonce) {
				r.noteNonce(nonce)
			}
		}
		r.NewNonce()
	}
	for range 3 * dupWindow / (5 * time.Millisecond) {
		hear()
	}
	if allocs := testing.AllocsPerRun(1000, hear); allocs != 0 {
		t.Errorf("nonce dedup at a steady rate allocates %v objects per Interest", allocs)
	}
}
