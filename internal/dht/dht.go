// Package dht implements the distributed hash table substrate Ekta layers
// over DSR: a Pastry-style key space where object keys are stored at the
// node whose identifier is numerically closest, with greedy prefix-distance
// routing through each node's partial view of the overlay.
//
// Ekta's defining property for the paper's comparison is that locating data
// costs lookup messages across the overlay before any transfer begins; this
// implementation reproduces those per-lookup costs over the shared medium.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"time"

	"dapes/internal/sim"
)

// Key is a DHT identifier.
type Key uint32

// KeyOf hashes arbitrary bytes into the identifier space.
func KeyOf(b []byte) Key {
	sum := sha256.Sum256(b)
	return Key(binary.BigEndian.Uint32(sum[:4]))
}

// NodeKey derives a node's DHT identifier from its network ID.
func NodeKey(nodeID int) Key {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(nodeID))
	return KeyOf(b[:])
}

// distance is the circular distance between identifiers.
func distance(a, b Key) uint32 {
	d := uint32(a) - uint32(b)
	if dr := uint32(b) - uint32(a); dr < d {
		return dr
	}
	return d
}

// Message kinds on the overlay (first byte of a DHT payload; 0x20 base
// distinguishes DHT traffic from Ekta's application messages).
const (
	msgLookup   = 0x20
	msgFound    = 0x21
	msgStore    = 0x22
	msgJoin     = 0x23
	msgNodes    = 0x24
	msgStoreAck = 0x25
)

// Transport sends DHT payloads between overlay nodes (implemented by
// transport.Datagram over DSR in Ekta).
type Transport interface {
	Send(dst int, payload []byte) bool
}

// The overlay's timers and bounds.
const (
	// lookupTimeout bounds one lookup before failure is reported.
	lookupTimeout = 12 * time.Second
	// viewSize bounds the partial view (leaf set + routing entries). It is
	// large enough that views converge to full membership in the
	// paper-scale swarms (tens of nodes); stand-in for Pastry's leaf-set
	// consistency, which guarantees that store placement and lookup
	// routing agree on the responsible node.
	viewSize = 64
	// migrateRetry is the minimum interval between re-offers of a key to
	// its (closer) owner. Keys are replicated rather than moved: the local
	// copy survives until the owner's copy is confirmed by the overlay
	// (best-effort re-offers cover lost transfers on the lossy medium).
	migrateRetry = 5 * time.Second
)

// Node is one DHT participant.
type Node struct {
	id       int
	key      Key
	k        *sim.Kernel
	tr       Transport
	view     map[int]Key            // nodeID -> key
	data     map[Key][]byte         // locally stored key/value pairs
	migrated map[Key]migrationState // re-offer bookkeeping per foreign-owned key

	nextLookup uint32
	lookups    map[uint32]*lookup
	lookupPool []*lookup

	// Messages counts DHT overlay messages sent (Ekta's search overhead).
	Messages uint64
}

// lookup tracks one in-flight resolution. Records (and their timeout
// timers) are pooled per node: the mobile overlay churns lookups
// constantly, and each used to cost a closure plus an event per attempt.
type lookup struct {
	n      *Node
	id     uint32
	key    Key
	t      *sim.Timer
	onDone func(value []byte, holder int, ok bool)
}

// timeout fails an unanswered lookup.
func (lk *lookup) timeout() {
	n := lk.n
	if n.lookups[lk.id] != lk {
		return
	}
	delete(n.lookups, lk.id)
	onDone := lk.onDone
	n.releaseLookup(lk)
	onDone(nil, 0, false)
}

// releaseLookup recycles a finished lookup record.
func (n *Node) releaseLookup(lk *lookup) {
	lk.t.Stop()
	lk.onDone = nil
	n.lookupPool = append(n.lookupPool, lk)
}

// migrationState tracks re-offers of a key to its closer owner: offers
// repeat (spaced migrateRetry apart, bounded) until the owner acknowledges,
// and restart if the believed owner changes as the view evolves. This keeps
// the mapping alive across a lossy medium without a permanent re-offer storm.
type migrationState struct {
	target   int
	last     time.Duration
	attempts int
	acked    bool
}

// maxMigrateAttempts bounds per-owner re-offers of one key.
const maxMigrateAttempts = 10

// NewNode creates a DHT node for the given network ID.
func NewNode(k *sim.Kernel, nodeID int, tr Transport) *Node {
	return &Node{
		id:       nodeID,
		key:      NodeKey(nodeID),
		k:        k,
		tr:       tr,
		view:     make(map[int]Key),
		data:     make(map[Key][]byte),
		migrated: make(map[Key]migrationState),
		lookups:  make(map[uint32]*lookup),
	}
}

// Contacts returns the known overlay node IDs in ascending order, so
// callers iterating them behave identically run to run.
func (n *Node) Contacts() []int {
	out := make([]int, 0, len(n.view))
	for id := range n.view {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// AddContact seeds the node's view (bootstrap).
func (n *Node) AddContact(nodeID int) {
	if nodeID == n.id {
		return
	}
	n.view[nodeID] = NodeKey(nodeID)
	n.trimView()
}

// trimView evicts the contacts farthest from our key beyond viewSize,
// Pastry-leaf-set style.
func (n *Node) trimView() {
	for len(n.view) > viewSize {
		// Ties on distance break toward the higher node ID: map iteration
		// order is randomized per run and must never pick the eviction.
		worstID, worstDist := -1, uint32(0)
		for id, key := range n.view {
			d := distance(key, n.key)
			if worstID == -1 || d > worstDist || (d == worstDist && id > worstID) {
				worstID, worstDist = id, d
			}
		}
		delete(n.view, worstID)
	}
}

// closest returns the known node (possibly self) nearest to key, breaking
// distance ties toward the lower node ID so the route choice is
// deterministic regardless of map iteration order.
func (n *Node) closest(key Key) (nodeID int, dist uint32) {
	nodeID, dist = n.id, distance(n.key, key)
	for id, nk := range n.view {
		if d := distance(nk, key); d < dist || (d == dist && id < nodeID) {
			nodeID, dist = id, d
		}
	}
	return nodeID, dist
}

// Join announces this node to a bootstrap contact, populating views.
func (n *Node) Join(bootstrap int) {
	n.AddContact(bootstrap)
	msg := []byte{msgJoin}
	msg = binary.BigEndian.AppendUint32(msg, uint32(n.id))
	n.Messages++
	n.tr.Send(bootstrap, msg)
}

// Store places value under key: a local replica is kept, and the key is
// offered to its responsible node via migrate (with retries), so a single
// lost transfer cannot erase the mapping.
func (n *Node) Store(key Key, value []byte) {
	n.data[key] = append([]byte(nil), value...)
	delete(n.migrated, key)
	n.migrate()
}

// Lookup resolves key to its stored value and holder, invoking onDone when
// the overlay answers or the timeout passes.
func (n *Node) Lookup(key Key, onDone func(value []byte, holder int, ok bool)) {
	if v, ok := n.data[key]; ok {
		onDone(v, n.id, true)
		return
	}
	n.nextLookup++
	id := n.nextLookup
	var lk *lookup
	if l := len(n.lookupPool); l > 0 {
		lk = n.lookupPool[l-1]
		n.lookupPool[l-1] = nil
		n.lookupPool = n.lookupPool[:l-1]
	} else {
		lk = &lookup{n: n}
		lk.t = n.k.NewTimer(lk.timeout)
	}
	lk.id, lk.key, lk.onDone = id, key, onDone
	n.lookups[id] = lk
	lk.t.Reset(lookupTimeout)
	n.routeLookup(id, n.id, key)
}

func (n *Node) routeLookup(lookupID uint32, origin int, key Key) {
	target, dist := n.closest(key)
	if target == n.id || dist >= distance(n.key, key) {
		// We are (or believe we are) responsible; answer the origin.
		n.answer(lookupID, origin, key)
		return
	}
	msg := []byte{msgLookup}
	msg = binary.BigEndian.AppendUint32(msg, lookupID)
	msg = binary.BigEndian.AppendUint32(msg, uint32(origin))
	msg = binary.BigEndian.AppendUint32(msg, uint32(key))
	n.Messages++
	n.tr.Send(target, msg)
}

func (n *Node) answer(lookupID uint32, origin int, key Key) {
	value, found := n.data[key]
	msg := []byte{msgFound}
	msg = binary.BigEndian.AppendUint32(msg, lookupID)
	msg = binary.BigEndian.AppendUint32(msg, uint32(key))
	if found {
		msg = append(msg, 1)
		msg = binary.BigEndian.AppendUint32(msg, uint32(n.id))
		msg = append(msg, value...)
	} else {
		msg = append(msg, 0)
	}
	if origin == n.id {
		n.handleFound(msg[1:])
		return
	}
	n.Messages++
	n.tr.Send(origin, msg)
}

// migrate offers stored keys to their responsible nodes — the Pastry
// behaviour of handing keys to a numerically closer node as the view grows.
// Offers repeat every migrateRetry until overlay traffic confirms the view,
// and the local replica is retained, so lost transfers on the wireless
// medium cannot erase a mapping.
func (n *Node) migrate() {
	now := n.k.Now()
	// Offers go out in sorted key order: each Send schedules medium events,
	// so map-order iteration here would make the on-air transmission order
	// — and therefore collisions and the whole trace — vary run to run.
	keys := make([]Key, 0, len(n.data))
	for key := range n.data {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		value := n.data[key]
		target, dist := n.closest(key)
		if target == n.id || dist >= distance(n.key, key) {
			continue
		}
		st := n.migrated[key]
		if st.target != target {
			st = migrationState{target: target}
		}
		if st.acked || st.attempts >= maxMigrateAttempts ||
			(st.attempts > 0 && now-st.last < migrateRetry) {
			n.migrated[key] = st
			continue
		}
		st.last = now
		st.attempts++
		n.migrated[key] = st
		msg := []byte{msgStore}
		msg = binary.BigEndian.AppendUint32(msg, uint32(key))
		msg = append(msg, value...)
		n.Messages++
		n.tr.Send(target, msg)
	}
}

// Receive processes an overlay payload addressed to this node. Returns true
// when the payload was a DHT message.
func (n *Node) Receive(src int, payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	n.AddContact(src)
	defer n.migrate()
	switch payload[0] {
	case msgJoin:
		if len(payload) < 5 {
			return true
		}
		joiner := int(binary.BigEndian.Uint32(payload[1:5]))
		n.AddContact(joiner)
		// Share our view so the joiner learns the overlay (sorted so the
		// wire bytes are stable run to run).
		msg := []byte{msgNodes}
		for _, id := range n.Contacts() {
			msg = binary.BigEndian.AppendUint32(msg, uint32(id))
		}
		n.Messages++
		n.tr.Send(joiner, msg)
		return true
	case msgNodes:
		for pos := 1; pos+4 <= len(payload); pos += 4 {
			n.AddContact(int(binary.BigEndian.Uint32(payload[pos:])))
		}
		return true
	case msgStore:
		if len(payload) < 5 {
			return true
		}
		key := Key(binary.BigEndian.Uint32(payload[1:5]))
		// Route closer if we are not the responsible node.
		if target, dist := n.closest(key); target != n.id && dist < distance(n.key, key) {
			n.Messages++
			n.tr.Send(target, payload)
			return true
		}
		n.data[key] = append([]byte(nil), payload[5:]...)
		// Acknowledge so the offerer stops re-offering.
		ack := []byte{msgStoreAck}
		ack = binary.BigEndian.AppendUint32(ack, uint32(key))
		n.Messages++
		n.tr.Send(src, ack)
		return true
	case msgStoreAck:
		if len(payload) < 5 {
			return true
		}
		key := Key(binary.BigEndian.Uint32(payload[1:5]))
		if st, ok := n.migrated[key]; ok && st.target == src {
			st.acked = true
			n.migrated[key] = st
		}
		return true
	case msgLookup:
		if len(payload) < 13 {
			return true
		}
		lookupID := binary.BigEndian.Uint32(payload[1:5])
		origin := int(binary.BigEndian.Uint32(payload[5:9]))
		key := Key(binary.BigEndian.Uint32(payload[9:13]))
		n.routeLookup(lookupID, origin, key)
		return true
	case msgFound:
		n.handleFound(payload[1:])
		return true
	}
	return false
}

func (n *Node) handleFound(body []byte) {
	if len(body) < 9 {
		return
	}
	lookupID := binary.BigEndian.Uint32(body[:4])
	lk, ok := n.lookups[lookupID]
	if !ok {
		return
	}
	delete(n.lookups, lookupID)
	onDone := lk.onDone
	n.releaseLookup(lk)
	if body[8] == 0 {
		onDone(nil, 0, false)
		return
	}
	if len(body) < 13 {
		onDone(nil, 0, false)
		return
	}
	holder := int(binary.BigEndian.Uint32(body[9:13]))
	onDone(append([]byte(nil), body[13:]...), holder, true)
}

// LocalData returns the number of key/value pairs stored at this node.
//
//lint:ignore unreferenced ekta's TestDownloaderRepublishesPieces counts the piece pointers stored
func (n *Node) LocalData() int { return len(n.data) }
