package multihop

import "math/bits"

// ringFirst is the capacity a ring is made with, inside its table's own
// allocation: most relays of a large world hold only a few entries within
// one window.
const ringFirst = 4

// dirFirst is how many chunks the directory made by a ring's first growth
// holds, a capacity of ringFirst<<dirFirst positions; a ring that grows past
// it appends to its directory.
const dirFirst = 10

// ring is the time-ordered table behind a Relay's nonces and forward
// records. Entries are pushed at non-decreasing kernel time and share one
// lifetime, so the ring holds them oldest first and its owner expires them
// from the head. An open-addressed index (linear probing from the key's
// hash, deletion by backward shift, so no tombstones) finds a key's latest
// entry. A key pushed again gets a new entry and the index moves to it; the
// old entry later leaves the ring without touching the index.
//
// Ring and index share their positions: position p holds ring entry p, the
// hash of its key, and index cells 3p to 3p+2, so the index, one cell per
// distinct key in the ring, is at most a third full. The positions live in
// chunks that never move. The first ringFirst are inline; chunk k of more
// holds positions [ringFirst<<k, ringFirst<<(k+1)), so the capacity is
// ringFirst<<len(more), a power of two. The ring grows only when it is full
// of unexpired entries, by one chunk as large as itself (grow).
type ring[E any] struct {
	head, count int32              // the ring's oldest entry and its length
	more        [][]slot[E]        // the chunks past first, each as large as all before it
	first       [ringFirst]slot[E] // positions 0 to ringFirst-1, in the table's own allocation
}

type slot[E any] struct {
	e     E
	h     uint32   // the hash of the entry's key
	cells [3]int32 // index cells: a ring position plus one, 0 when empty
}

// firstChunk is what a ring's first growth allocates, as one object: its
// chunk directory and chunk 0.
type firstChunk[E any] struct {
	dir   [dirFirst][]slot[E]
	slots [ringFirst]slot[E]
}

// size returns the ring's capacity.
func (t *ring[E]) size() int32 { return ringFirst << len(t.more) }

// slot returns position p. Past first, p's top bit picks its chunk, and
// the bits below it are its offset there.
func (t *ring[E]) slot(p int32) *slot[E] {
	if p < ringFirst {
		return &t.first[p]
	}
	c := t.more[bits.Len32(uint32(p))-bits.Len32(ringFirst)]
	return &c[int(p)&(len(c)-1)]
}

// home is hash h's first index cell among m: the hash scaled to m.
func home(h uint32, m int) int { return int(uint64(h) * uint64(m) >> 32) }

func (t *ring[E]) cell(j int) *int32 { return &t.slot(int32(j / 3)).cells[j%3] }

// at returns the ring's i-th entry from the head.
func (t *ring[E]) at(i int32) *E { return &t.slot((t.head + i) & (t.size() - 1)).e }

// find returns the index cell naming the latest entry of hash h that is
// accepts, and that entry's slot, or the empty cell that ends h's probe and
// nil. A nil is accepts every entry of hash h, for a key that is its hash.
func (t *ring[E]) find(h uint32, is func(*E) bool) (*int32, *slot[E]) {
	m := 3 * int(t.size())
	for j := home(h, m); ; {
		c := t.cell(j)
		if *c == 0 {
			return c, nil
		}
		if s := t.slot(*c - 1); s.h == h && (is == nil || is(&s.e)) {
			return c, s
		}
		if j++; j == m {
			j = 0
		}
	}
}

// pop removes the head entry, and the index cell naming it if it is still
// its key's latest. The entry stays readable until the next push.
func (t *ring[E]) pop() *E {
	s := t.slot(t.head)
	m := 3 * int(t.size())
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
	t.head = (t.head + 1) & (t.size() - 1)
	t.count--
	return &s.e
}

// reserve makes room for one more entry, growing the ring if it is full,
// and reports whether it grew. same reports whether two entries have one
// key, nil when a key is its hash. Growth rebuilds the index, so a cell
// find returned before it is stale.
func (t *ring[E]) reserve(same func(a, b *E) bool) (grew bool) {
	if t.count < t.size() {
		return false
	}
	t.grow(same)
	return true
}

// push appends e with key hash h as the latest entry of its key, named by
// index cell c, which find returned after reserve.
func (t *ring[E]) push(c *int32, h uint32, e E) {
	pos := (t.head + t.count) & (t.size() - 1)
	s := t.slot(pos)
	s.e, s.h = e, h
	*c = pos + 1
	t.count++
}

// unindex empties cell j, shifting back each entry of the probe run after it
// that may take the hole: one whose home does not lie between the hole and
// the entry.
func (t *ring[E]) unindex(j int) {
	m := 3 * int(t.size())
	for i := j; ; {
		if i++; i == m {
			i = 0
		}
		c := *t.cell(i)
		if c == 0 {
			break
		}
		if h := home(t.slot(c-1).h, m); (i-h+m)%m >= (i-j+m)%m {
			*t.cell(j) = c
			j = i
		}
	}
	*t.cell(j) = 0
}

// grow doubles the full ring by adding a chunk as large as itself. Entries
// keep their positions, except those the ring had wrapped to [0, head):
// they move into the new chunk, after the others. The index, whose size
// doubled, is then cleared and rebuilt newest entry first, so that the entry
// it names for each key is the key's latest; same is reserve's.
func (t *ring[E]) grow(same func(a, b *E) bool) {
	n := t.size()
	if t.more == nil {
		c := new(firstChunk[E])
		t.more = append(c.dir[:0], c.slots[:])
	} else {
		t.more = append(t.more, make([]slot[E], n))
	}
	for p := range t.head {
		from, to := t.slot(p), t.slot(n+p)
		to.e, to.h = from.e, from.h
		*from = slot[E]{}
	}
	for p := range n {
		t.slot(p).cells = [3]int32{}
	}
	for i := t.count - 1; i >= 0; i-- {
		pos := t.head + i
		s := t.slot(pos)
		var is func(*E) bool
		if same != nil {
			is = func(e *E) bool { return same(e, &s.e) }
		}
		if c, newer := t.find(s.h, is); newer == nil {
			*c = pos + 1
		}
	}
}

// latest calls f with each entry its key's index names, in index order.
func (t *ring[E]) latest(f func(*E)) {
	for p := range t.size() {
		for _, c := range t.slot(p).cells {
			if c != 0 {
				f(&t.slot(c - 1).e)
			}
		}
	}
}

// reset forgets every entry and keeps the chunks.
func (t *ring[E]) reset() {
	t.head, t.count = 0, 0
	clear(t.first[:])
	for _, c := range t.more {
		clear(c)
	}
}
