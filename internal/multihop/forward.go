package multihop

import (
	"strings"
	"time"

	"dapes/internal/ndn"
)

// keyFirst is the key-byte capacity a forward table is made with, inside
// its own allocation.
const keyFirst = 256

// forwardTable is a Relay's forwarded Interests and suppressed names: a ring
// of forward entries in forward order, indexed by name URI. Forwards happen
// at non-decreasing kernel time and every entry lives 2·SuppressTTL, so
// entries expire from the head as new ones are pushed. Each entry's URI is
// copied into a byte ring in the same order, so a key costs no object and
// leaves with its entry.
//
// A name's suppression is held by its latest entry: until, set by the
// arming of any forward of the name that went unanswered, cleared by Data
// answering the name and by Reset, and carried over when the name is
// forwarded again. A suppression never outlives the latest entry, whose
// forward came no earlier than the armed one's.
//
// Each forward schedules one arming at SuppressTTL. Armings fire in forward
// order, so the one firing belongs to the oldest entry not yet armed, the
// pending-th from the tail. Reset leaves the entries in the ring, no longer
// records, so the armings already scheduled still find theirs and still
// suppress their names, as they did when each arming held its record.
type forwardTable struct {
	ring[forwardEntry]
	keys             []byte // the entries' URIs in forward order, each contiguous, in a ring of a power of two
	keyHead, keyTail uint32 // offsets into keys, counted from its first use: where the bytes in use start, where the next URI goes
	pending          int32  // entries at the ring's tail whose arming has not fired
	prefixes         int32  // CanBePrefix records
	fire             func() // arm, scheduled once per forward
	firstKeys        [keyFirst]byte
}

// forwardEntry is one forward of an Interest name.
type forwardEntry struct {
	at       time.Duration
	until    time.Duration // the latest entry's: its name is suppressed before then
	prefix   *prefixRecord // a CanBePrefix record's own state, else nil
	off, n   uint32        // its URI: n bytes at offset off of keys
	answered bool
	record   bool // a forward record: not since forwarded again or wiped by Reset
}

// prefixRecord is what only a CanBePrefix record needs; an exact record's
// answered bit says as much.
type prefixRecord struct {
	name    ndn.Name        // confirms a match the URI walk found
	relayed map[string]bool // Data name URIs relayed, once each
}

func newForwardTable() *forwardTable {
	t := new(forwardTable)
	t.keys = t.firstKeys[:]
	t.fire = t.arm
	return t
}

// keyHash hashes a name URI eight bytes at a time.
func keyHash(key string) uint32 {
	h := uint64(len(key))
	for {
		var w uint64
		n := min(len(key), 8)
		for i := n - 1; i >= 0; i-- {
			w = w<<8 | uint64(key[i])
		}
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		if key = key[n:]; key == "" {
			return uint32(h>>32) ^ uint32(h)
		}
	}
}

// key returns e's URI, in the key ring.
func (t *forwardTable) key(e *forwardEntry) []byte {
	off := e.off & uint32(len(t.keys)-1)
	return t.keys[off : off+e.n]
}

// findKey returns the index cell naming key's latest entry and its slot, or
// the empty cell ending key's probe and nil.
func (t *forwardTable) findKey(h uint32, key string) (*int32, *slot[forwardEntry]) {
	return t.find(h, func(e *forwardEntry) bool { return string(t.key(e)) == key })
}

// sameKey reports whether entries a and b are forwards of one URI.
func (t *forwardTable) sameKey(a, b *forwardEntry) bool { return string(t.key(a)) == string(t.key(b)) }

// lookup returns key's latest entry, or nil.
func (t *forwardTable) lookup(key string) *forwardEntry {
	if _, s := t.findKey(keyHash(key), key); s != nil {
		return &s.e
	}
	return nil
}

// add records a forward of in at now, first expiring every entry older than
// 2·SuppressTTL: the name's earlier record, if any, stops being one, and its
// suppression carries over.
func (t *forwardTable) add(in *ndn.Interest, now time.Duration) {
	t.expire(now)
	key := in.NameKey()
	h := keyHash(key)
	t.reserve(t.sameKey)
	c, s := t.findKey(h, key)
	e := forwardEntry{at: now, n: uint32(len(key)), record: true}
	if s != nil {
		old := &s.e
		e.until = old.until
		old.record = false
		if old.prefix != nil {
			old.prefix = nil
			t.prefixes--
		}
	}
	e.off = t.appendKey(key)
	if in.CanBePrefix {
		e.prefix = &prefixRecord{name: nameIn(strings.Clone(key), in.Name), relayed: make(map[string]bool, 1)}
		t.prefixes++
	}
	t.push(c, h, e)
	t.pending++
}

// expire drops the entries older than 2·SuppressTTL at now from the head,
// their URIs with them. Their armings have fired.
func (t *forwardTable) expire(now time.Duration) {
	for t.count > t.pending && now-t.at(0).at > 2*SuppressTTL {
		e := t.pop()
		t.keyHead = e.off + e.n
		if e.prefix != nil {
			t.prefixes--
		}
	}
}

// nameIn returns name with its components cut out of key, its URI form:
// component i starts one byte past the end of component i-1, whatever bytes
// either holds, a '/' included. Only the component headers are new.
func nameIn(key string, name ndn.Name) ndn.Name {
	out := make(ndn.Name, len(name))
	at := 0
	for i, c := range name {
		at++ // the '/' before it
		out[i] = ndn.Component(key[at : at+len(c)])
		at += len(c)
	}
	return out
}

// appendKey copies key into the key ring, whole: a URI that would run past
// the ring's end starts over at its beginning. It returns the key's offset.
func (t *forwardTable) appendKey(key string) uint32 {
	n := uint32(len(key))
	size := uint32(len(t.keys))
	at := t.keyTail
	if o := at & (size - 1); o+n > size {
		at += size - o
	}
	if at+n-t.keyHead > size {
		t.growKeys(n)
		at, size = t.keyTail, uint32(len(t.keys))
	}
	copy(t.keys[at&(size-1):], key)
	t.keyTail = at + n
	return at
}

// growKeys doubles the key ring until it holds twice its live bytes and n
// more, laying the entries' URIs out from offset 0 in order.
func (t *forwardTable) growKeys(n uint32) {
	live := t.keyTail - t.keyHead
	size := 2 * len(t.keys)
	for size < 2*int(live+n) {
		size *= 2
	}
	keys := make([]byte, size)
	at := uint32(0)
	for i := range t.count {
		e := t.at(i)
		copy(keys[at:], t.key(e))
		e.off = at
		at += e.n
	}
	t.keys, t.keyHead, t.keyTail = keys, 0, at
}

// arm suppresses the name of the oldest entry not yet armed if its forward
// brought nothing back, until 2·SuppressTTL after the forward. It was
// scheduled at the forward, so it fires at SuppressTTL, before an Interest
// arriving at that instant.
func (t *forwardTable) arm() {
	s := t.slot((t.head + t.count - t.pending) & (t.size() - 1))
	t.pending--
	if s.e.answered {
		return
	}
	_, latest := t.find(s.h, func(e *forwardEntry) bool { return t.sameKey(e, &s.e) })
	latest.e.until = s.e.at + 2*SuppressTTL
}

// wipe is Reset: no entry is a record or holds a suppression any more. The
// entries stay, so that pending armings find theirs.
func (t *forwardTable) wipe() {
	for i := range t.count {
		e := t.at(i)
		e.record, e.until, e.prefix = false, 0, nil
	}
	t.prefixes = 0
}

// fresh reports whether a record still answers Data at now: for twice the
// suppression timer after the forward, the in-flight window and the
// suppression it may arm.
func (e *forwardEntry) fresh(now time.Duration) bool {
	return e.record && now-e.at <= 2*SuppressTTL
}

// match finds the record the Data satisfies: its exact name, else the
// longest CanBePrefix record whose name prefixes it (e.g. discovery and
// bitmap signaling whose replies extend the request name). Records are
// keyed by URI and a name's prefixes are its URI cut at a '/', so the walk
// goes from the full key to the root, one lookup per component: two records
// cannot tie because equal-length prefixes of one name share a key. The
// walk is skipped while the table holds no CanBePrefix record. A record
// past its lifetime is passed over as if it were gone.
func (t *forwardTable) match(d *ndn.Data, now time.Duration) *forwardEntry {
	key := d.NameKey()
	if e := t.lookup(key); e != nil && e.fresh(now) {
		return e
	}
	if t.prefixes == 0 {
		return nil
	}
	for len(key) > 1 {
		key = key[:strings.LastIndexByte(key, '/')]
		if key == "" {
			key = "/"
		}
		// IsPrefixOf guards the one case where URIs overstate a match: a
		// component that itself contains '/'.
		if e := t.lookup(key); e != nil && e.prefix != nil && e.fresh(now) && e.prefix.name.IsPrefixOf(d.Name) {
			return e
		}
	}
	return nil
}

// sizes returns how many records are live at now and how many names are
// suppressed.
func (t *forwardTable) sizes(now time.Duration) (forwarded, suppressed int) {
	t.latest(func(e *forwardEntry) {
		if e.fresh(now) {
			forwarded++
		}
		if now < e.until {
			suppressed++
		}
	})
	return forwarded, suppressed
}
