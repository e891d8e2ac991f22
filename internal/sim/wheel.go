package sim

import "math/bits"

// wheelQueue is a hierarchical timer wheel over power-of-two tick buckets.
//
// Virtual time is divided into ticks of 2^tickBits ns (~1.05 ms). Each wheel
// level holds wheelSlots slots; a slot at level l covers wheelSlots^l ticks,
// so the eight levels together span the whole 63-bit duration space and no
// overflow list is needed. An event is filed at the lowest level whose slot
// resolution separates it from the cursor: the level of the most significant
// bit where the event's tick differs from curTick. That aligned placement
// rule means every queued event is always at a slot index strictly greater
// than the cursor's index at its level, so "find the next event" is a
// TrailingZeros scan of one occupancy word per level.
//
// Operations:
//
//   - push: O(1) — level from one XOR+Len64, append to the bucket.
//   - remove (Timer.Stop, Timer.Reset): O(1) — swap-remove from the bucket,
//     clear the occupancy bit when it empties. A stopped timer reclaims its
//     space instantly instead of leaving a tombstone for pop to skip.
//   - pop/peek: amortized O(1) — drain the current tick's events from a
//     small (at, seq) heap; when it empties, advance the cursor to the next
//     occupied slot, cascading higher-level buckets down as their windows
//     open.
//
// Determinism contract: the wheel pops the exact (at, seq) order the
// reference heap does. Same-tick events are ordered by the shared heapQueue
// (sub-tick timestamps first, then scheduling sequence), cascades never
// reassign sequence numbers, and events scheduled behind the cursor (the
// current tick, or an earlier one after a horizon peek advanced the cursor)
// go straight into the current-tick heap, which is exact by construction.
const (
	// tickBits sets the wheel granularity: one tick is 2^20 ns ≈ 1.05 ms,
	// comparable to the MAC jitters and transmission windows the layers
	// schedule with, so level 0 (64 ticks ≈ 67 ms) absorbs most traffic.
	tickBits = 20
	// wheelBits gives 64 slots per level: one uint64 occupancy word each.
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 8 // tickBits + wheelLevels*wheelBits = 68 ≥ 63 duration bits

	// curSlot marks events held in the current-tick heap rather than a
	// bucket.
	curSlot = -1
)

type wheelQueue struct {
	// buckets holds the pending events per (level, slot); bucket order is
	// arbitrary (swap-remove perturbs it) and irrelevant — events are
	// ordered when their tick's bucket is adopted into cur.
	buckets [wheelLevels * wheelSlots][]*event
	// bits is the per-level slot occupancy bitmap.
	bits [wheelLevels]uint64
	// cur orders the events of the current tick — and any event scheduled at
	// or behind the cursor — by (at, seq).
	cur heapQueue
	// curTick is the cursor: every event in cur has tick <= curTick, every
	// bucketed event has tick > curTick.
	curTick int64
	size    int
}

func (w *wheelQueue) len() int { return w.size }

func (w *wheelQueue) push(ev *event) {
	w.place(ev)
	w.size++
}

// place files an event relative to the cursor (shared by push and cascade).
func (w *wheelQueue) place(ev *event) {
	tick := int64(ev.at) >> tickBits
	if tick <= w.curTick {
		ev.slot = curSlot
		w.cur.push(ev)
		return
	}
	lvl := (63 - bits.LeadingZeros64(uint64(tick^w.curTick))) / wheelBits
	slot := int(tick>>(lvl*wheelBits)) & wheelMask
	i := lvl*wheelSlots + slot
	ev.slot = int32(i)
	ev.index = len(w.buckets[i])
	w.buckets[i] = append(w.buckets[i], ev)
	w.bits[lvl] |= 1 << slot
}

func (w *wheelQueue) pop() *event {
	if w.size == 0 {
		return nil
	}
	if w.cur.len() == 0 {
		w.advance()
	}
	w.size--
	return w.cur.pop()
}

func (w *wheelQueue) peek() *event {
	if w.size == 0 {
		return nil
	}
	if w.cur.len() == 0 {
		w.advance()
	}
	return w.cur.peek()
}

func (w *wheelQueue) remove(ev *event) {
	if ev.slot == curSlot {
		w.cur.remove(ev)
		w.size--
		return
	}
	i := int(ev.slot)
	b := w.buckets[i]
	n := len(b) - 1
	if ev.index != n {
		b[ev.index] = b[n]
		b[ev.index].index = ev.index
	}
	b[n] = nil
	w.buckets[i] = b[:n]
	if n == 0 {
		w.bits[i/wheelSlots] &^= 1 << (i % wheelSlots)
	}
	ev.index = -1
	w.size--
}

// advance moves the cursor to the next occupied tick. Level 0's future slots
// are all earlier than any higher level's (they share the cursor's
// higher-order bits), so the first occupied level holds the next event:
// level 0 buckets cover exactly one tick and are adopted wholesale into the
// current-tick heap; higher-level buckets are cascaded — re-filed against
// the new cursor, landing at lower levels or directly in cur — and the scan
// restarts inside their now-open window.
func (w *wheelQueue) advance() {
	for w.cur.len() == 0 {
		advanced := false
		for lvl := 0; lvl < wheelLevels; lvl++ {
			shift := lvl * wheelBits
			idx := int(w.curTick>>shift) & wheelMask
			word := w.bits[lvl] & (^uint64(0) << (idx + 1))
			if word == 0 {
				continue // window exhausted at this level; widen
			}
			slot := bits.TrailingZeros64(word)
			i := lvl*wheelSlots + slot
			// Jump the cursor to the start of the chosen slot's tick range.
			prefix := w.curTick >> (shift + wheelBits)
			w.curTick = (prefix<<wheelBits | int64(slot)) << shift
			b := w.buckets[i]
			w.buckets[i] = b[:0]
			w.bits[lvl] &^= 1 << slot
			if lvl == 0 {
				for _, ev := range b {
					ev.slot = curSlot
				}
				w.cur.adopt(b)
			} else {
				for _, ev := range b {
					w.place(ev)
				}
			}
			// Drop the recycled bucket's stale references so popped events
			// do not linger reachable behind its length.
			for j := range b {
				b[j] = nil
			}
			advanced = true
			break
		}
		if !advanced {
			return // size == 0: nothing queued anywhere
		}
	}
}
