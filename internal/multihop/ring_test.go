package multihop

import "testing"

// wrappedGrowth reports whether ring r, of capacity before an operation,
// grew in it with its head past 0: full, with entries wrapped to the
// positions before the head. Growth and the push after it leave the head
// where it was.
func wrappedGrowth[E any](r *ring[E], before int32) bool {
	return before > 0 && r.size() > before && r.head != 0
}

// growthOps returns operations that grow a table's ring from ringFirst
// entries growths times, each time full with its head past 0, then expire
// the entries that were oldest at the last growth. push(i) is the i-th push;
// after a step of short, an entry pushed exactly then is one nanosecond from
// expiring, and tick is a step of one nanosecond. Each round expires the
// oldest group of entries, pushes as many again, which wrap, one more, which
// grows the ring, and then fills it; the steps alternate so that each
// expires exactly the oldest group. A round's first push repeats the key of
// the push before it, so a key pushed again since the group before is in
// the ring at every growth.
func growthOps(growths int, push func(i int) byte, short, tick byte) []byte {
	ops := []byte{push(0), tick}
	for i := 1; i < ringFirst; i++ {
		ops = append(ops, push(i))
	}
	i, old, young := ringFirst, 1, ringFirst-1
	for g := range growths + 1 {
		if g%2 == 0 {
			ops = append(ops, short)
		} else {
			ops = append(ops, tick)
		}
		n := 2*(old+young) - young // the refill, the growing push and the fill
		if g == growths {
			n = 1
		}
		ops = append(ops, push(i-1))
		for range n - 1 {
			ops = append(ops, push(i))
			i++
		}
		old, young = young, n
	}
	return ops
}

// nonceGrowthOps is growthOps over checkNonceOps's notes and steps.
func nonceGrowthOps(growths int) []byte {
	const note, tick, short = 0 << 5, 3 << 5, 4 << 5 // short: dupWindow - 1
	return growthOps(growths, func(i int) byte { return note | byte(i%32) }, short, tick)
}

// forwardGrowthOps is growthOps over checkForwardOps's forwards and steps.
func forwardGrowthOps(growths int) []byte {
	const fwd, tick, life = 0 << 5, 4<<5 | 0, 4<<5 | 5 // forwardSteps: 1 ns, 2·SuppressTTL
	return growthOps(growths, func(i int) byte { return fwd | byte(i%32) }, life, tick)
}

// TestRingGrowthMatchesMaps: a nonce table and a forward table each grow
// six times, every time full, with entries wrapped before the head and a
// key in the ring twice, and after every operation answer as the maps they
// replaced did (checkNonceOps, checkForwardOps). It fails if growth leaves
// the wrapped entries where they were, does not rebuild the index, or
// rebuilds it oldest entry first, so that it names a key's older entry.
func TestRingGrowthMatchesMaps(t *testing.T) {
	t.Parallel()
	const growths = 6
	if got := checkNonceOps(t, nonceGrowthOps(growths)); got != growths {
		t.Errorf("the nonce ring grew %d times with its head past 0, want %d", got, growths)
	}
	if got := checkForwardOps(t, forwardGrowthOps(growths)); got != growths {
		t.Errorf("the forward ring grew %d times with its head past 0, want %d", got, growths)
	}
}
