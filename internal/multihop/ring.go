package multihop

// ringFirst is the capacity a ring is made with, inside its table's own
// allocation: most relays of a large world hold only a few entries within
// one window.
const ringFirst = 4

// ring is the time-ordered table behind a Relay's nonces and forward
// records. Entries are pushed at non-decreasing kernel time and share one
// lifetime, so the ring holds them oldest first and its owner expires them
// from the head. An open-addressed index (linear probing from the key's
// hash, deletion by backward shift, so no tombstones) finds a key's latest
// entry. A key pushed again gets a new entry and the index moves to it; the
// old entry later leaves the ring without touching the index.
//
// Ring and index share one array: slot i holds ring entry i, the hash of its
// key, and index cells 3i to 3i+2, so the index, one cell per distinct key
// in the ring, is at most a third full. The ring doubles only when it is
// full of unexpired entries.
type ring[E any] struct {
	head, count int32              // the ring's oldest entry and its length
	slots       []slot[E]          // the ring's capacity, a power of two
	first       [ringFirst]slot[E] // slots until the first doubling, in the table's own allocation
}

type slot[E any] struct {
	e     E
	h     uint32   // the hash of the entry's key
	cells [3]int32 // index cells: a ring position plus one, 0 when empty
}

func (t *ring[E]) init() { t.slots = t.first[:] }

// home is hash h's first index cell among m: the hash scaled to m.
func home(h uint32, m int) int { return int(uint64(h) * uint64(m) >> 32) }

func (t *ring[E]) cell(j int) *int32 { return &t.slots[j/3].cells[j%3] }

// at returns the ring's i-th entry from the head.
func (t *ring[E]) at(i int32) *E { return &t.slots[(t.head+i)&int32(len(t.slots)-1)].e }

// find returns the index cell naming the latest entry of hash h that is
// accepts, and its ring position, or the empty cell that ends h's probe and
// -1. A nil is accepts every entry of hash h, for a key that is its hash.
func (t *ring[E]) find(h uint32, is func(*E) bool) (j int, pos int32) {
	m := 3 * len(t.slots)
	for j = home(h, m); ; {
		c := *t.cell(j)
		if c == 0 {
			return j, -1
		}
		if s := &t.slots[c-1]; s.h == h && (is == nil || is(&s.e)) {
			return j, c - 1
		}
		if j++; j == m {
			j = 0
		}
	}
}

// pop removes the head entry, and the index cell naming it if it is still
// its key's latest. The entry stays readable until the next push.
func (t *ring[E]) pop() *E {
	s := &t.slots[t.head]
	m := 3 * len(t.slots)
	for j := home(s.h, m); ; {
		c := *t.cell(j)
		if c == 0 {
			break
		}
		if c-1 == t.head {
			t.unindex(j)
			break
		}
		if j++; j == m {
			j = 0
		}
	}
	t.head = (t.head + 1) & int32(len(t.slots)-1)
	t.count--
	return &s.e
}

// reserve makes room for one more entry, doubling the ring if it is full.
// Positions move when it doubles, so find after reserving.
func (t *ring[E]) reserve() {
	if int(t.count) == len(t.slots) {
		t.grow()
	}
}

// push appends e with key hash h as the latest entry of its key, named by
// index cell j, which find returned after reserve.
func (t *ring[E]) push(j int, h uint32, e E) {
	pos := (t.head + t.count) & int32(len(t.slots)-1)
	t.slots[pos].e, t.slots[pos].h = e, h
	*t.cell(j) = pos + 1
	t.count++
}

// unindex empties cell j, shifting back each entry of the probe run after it
// that may take the hole: one whose home does not lie between the hole and
// the entry.
func (t *ring[E]) unindex(j int) {
	m := 3 * len(t.slots)
	for i := j; ; {
		if i++; i == m {
			i = 0
		}
		c := *t.cell(i)
		if c == 0 {
			break
		}
		if h := home(t.slots[c-1].h, m); (i-h+m)%m >= (i-j+m)%m {
			*t.cell(j) = c
			j = i
		}
	}
	*t.cell(j) = 0
}

// grow doubles the ring, laying its entries out from slot 0 in order, and
// re-indexes the latest entry of each key.
func (t *ring[E]) grow() {
	old, n := t.slots, int32(len(t.slots))
	t.slots = make([]slot[E], 2*n)
	for i := range n {
		s := &old[(t.head+i)&(n-1)]
		t.slots[i].e, t.slots[i].h = s.e, s.h
	}
	m := 3 * len(t.slots)
	for i := range old {
		for _, c := range old[i].cells {
			if c == 0 {
				continue
			}
			pos := (c - 1 - t.head) & (n - 1)
			j := home(t.slots[pos].h, m)
			for *t.cell(j) != 0 {
				if j++; j == m {
					j = 0
				}
			}
			*t.cell(j) = pos + 1
		}
	}
	t.head = 0
}

// latest calls f with each entry its key's index names, in index order.
func (t *ring[E]) latest(f func(*E)) {
	for i := range t.slots {
		for _, c := range t.slots[i].cells {
			if c != 0 {
				f(&t.slots[c-1].e)
			}
		}
	}
}

// reset forgets every entry and keeps the slots.
func (t *ring[E]) reset() {
	t.head, t.count = 0, 0
	clear(t.slots)
}
