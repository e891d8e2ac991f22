package multihop

import "time"

// nonceFirst is the ring capacity a nonce table is made with: most relays of
// a large world note only a few nonces within one duplicate window.
const nonceFirst = 4

// nonceTable is a Relay's heard nonces, each for dupWindow after it was last
// noted. Nonces are noted at non-decreasing kernel time and share the one
// window, so a ring in note order holds them oldest first and expires them
// from its head. An open-addressed index (linear probing from a hash,
// deletion by backward shift, so no tombstones) finds a nonce's latest ring
// entry. A nonce noted again gets a new entry and the index moves to it; the
// old entry later leaves the ring without touching the index.
//
// Ring and index share one array: slot i holds ring entry i and index cells
// 3i to 3i+2. A ring of n entries thus costs 24 bytes an entry in one
// allocation, and its index of 3n cells, one per distinct nonce in the ring,
// is at most a third full. The ring doubles only when it is full of
// unexpired entries.
type nonceTable struct {
	head, count int32                 // the ring's oldest entry and its length
	slots       []nonceSlot           // the ring's capacity, a power of two
	first       [nonceFirst]nonceSlot // slots until the first doubling, in the table's own allocation
}

type nonceSlot struct {
	at    time.Duration
	nonce uint32
	cells [3]int32 // index cells: a ring position plus one, 0 when empty
}

func newNonceTable() *nonceTable {
	t := new(nonceTable)
	t.slots = t.first[:]
	return t
}

// home is nonce's first index cell among m: a multiplicative hash scaled to
// m, so that neighbouring nonces spread.
func home(nonce uint32, m int) int {
	return int(uint64(nonce*0x9e3779b9) * uint64(m) >> 32)
}

func (t *nonceTable) cell(j int) *int32 { return &t.slots[j/3].cells[j%3] }

// find returns the index cell holding nonce and the ring position it names,
// or the empty cell that ends nonce's probe and -1.
func (t *nonceTable) find(nonce uint32) (j int, pos int32) {
	m := 3 * len(t.slots)
	for j = home(nonce, m); ; {
		c := *t.cell(j)
		if c == 0 {
			return j, -1
		}
		if t.slots[c-1].nonce == nonce {
			return j, c - 1
		}
		if j++; j == m {
			j = 0
		}
	}
}

// heard reports whether nonce was noted less than dupWindow before now.
func (t *nonceTable) heard(nonce uint32, now time.Duration) bool {
	_, pos := t.find(nonce)
	return pos >= 0 && now-t.slots[pos].at < dupWindow
}

// note records nonce as heard now, first expiring every entry a dupWindow
// old or older.
func (t *nonceTable) note(nonce uint32, now time.Duration) {
	mask := int32(len(t.slots) - 1)
	for t.count > 0 && now-t.slots[t.head].at >= dupWindow {
		if j, pos := t.find(t.slots[t.head].nonce); pos == t.head {
			t.unindex(j)
		}
		t.head = (t.head + 1) & mask
		t.count--
	}
	if int(t.count) == len(t.slots) {
		t.grow()
		mask = int32(len(t.slots) - 1)
	}
	j, _ := t.find(nonce)
	pos := (t.head + t.count) & mask
	t.slots[pos].at, t.slots[pos].nonce = now, nonce
	*t.cell(j) = pos + 1
	t.count++
}

// unindex empties cell j, shifting back each entry of the probe run after it
// that may take the hole: one whose home does not lie between the hole and
// the entry.
func (t *nonceTable) unindex(j int) {
	m := 3 * len(t.slots)
	for i := j; ; {
		if i++; i == m {
			i = 0
		}
		c := *t.cell(i)
		if c == 0 {
			break
		}
		if h := home(t.slots[c-1].nonce, m); (i-h+m)%m >= (i-j+m)%m {
			*t.cell(j) = c
			j = i
		}
	}
	*t.cell(j) = 0
}

// grow doubles the ring, laying its entries out from slot 0 in order, and
// re-indexes the latest entry of each nonce.
func (t *nonceTable) grow() {
	old, n := t.slots, int32(len(t.slots))
	t.slots = make([]nonceSlot, 2*n)
	for i := range n {
		s := &old[(t.head+i)&(n-1)]
		t.slots[i].at, t.slots[i].nonce = s.at, s.nonce
	}
	for i := range old {
		for _, c := range old[i].cells {
			if c != 0 {
				pos := (c - 1 - t.head) & (n - 1)
				j, _ := t.find(t.slots[pos].nonce)
				*t.cell(j) = pos + 1
			}
		}
	}
	t.head = 0
}

// live returns how many nonces were noted less than dupWindow before now.
func (t *nonceTable) live(now time.Duration) int {
	n := 0
	for i := range t.slots {
		for _, c := range t.slots[i].cells {
			if c != 0 && now-t.slots[c-1].at < dupWindow {
				n++
			}
		}
	}
	return n
}

// reset forgets every nonce and keeps the slots.
func (t *nonceTable) reset() {
	t.head, t.count = 0, 0
	clear(t.slots)
}
