package dht

import (
	"strconv"
	"testing"
	"time"

	"dapes/internal/sim"
)

// loopback wires a set of DHT nodes with instantaneous message passing, so
// the overlay logic is tested independent of routing.
type loopback struct {
	k     *sim.Kernel
	nodes map[int]*Node
	sent  int
}

func (l *loopback) transportFor(id int) Transport {
	return transportFunc(func(dst int, payload []byte) bool {
		l.sent++
		msg := append([]byte(nil), payload...)
		l.k.ScheduleFunc(time.Millisecond, func() {
			if n, ok := l.nodes[dst]; ok {
				n.Receive(id, msg)
			}
		})
		return true
	})
}

type transportFunc func(dst int, payload []byte) bool

func (f transportFunc) Send(dst int, payload []byte) bool { return f(dst, payload) }

func buildOverlay(t *testing.T, k *sim.Kernel, n int) (*loopback, []*Node) {
	t.Helper()
	lb := &loopback{k: k, nodes: make(map[int]*Node)}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = NewNode(k, i, lb.transportFor(i))
		lb.nodes[i] = nodes[i]
	}
	// Everyone joins via node 0, then a round of joins via random peers
	// spreads the views.
	for i := 1; i < n; i++ {
		nodes[i].Join(0)
	}
	k.Run(time.Second)
	for i := 1; i < n; i++ {
		nodes[i].Join((i + 7) % n)
	}
	k.Run(2 * time.Second)
	return lb, nodes
}

func TestKeyDeterminism(t *testing.T) {
	t.Parallel()
	if KeyOf([]byte("x")) != KeyOf([]byte("x")) {
		t.Fatal("KeyOf nondeterministic")
	}
	if NodeKey(1) == NodeKey(2) {
		t.Fatal("node key collision for small ids")
	}
}

func TestDistanceSymmetricCircular(t *testing.T) {
	t.Parallel()
	if distance(5, 10) != distance(10, 5) {
		t.Fatal("distance not symmetric")
	}
	if distance(0, 0xFFFFFFFF) != 1 {
		t.Fatalf("circular distance = %d, want 1", distance(0, 0xFFFFFFFF))
	}
	if distance(7, 7) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestStoreAndLookup(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(71)
	_, nodes := buildOverlay(t, k, 12)

	key := KeyOf([]byte("piece-0"))
	nodes[3].Store(key, []byte("holder-info"))
	k.Run(3 * time.Second)

	var value []byte
	var holder int
	var found bool
	nodes[9].Lookup(key, func(v []byte, h int, ok bool) {
		value, holder, found = v, h, ok
	})
	k.Run(6 * time.Second)

	if !found {
		t.Fatal("lookup failed")
	}
	if string(value) != "holder-info" {
		t.Fatalf("value = %q", value)
	}
	if holder < 0 || holder >= 12 {
		t.Fatalf("holder = %d", holder)
	}
}

func TestLookupMissingKeyReportsFailure(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(72)
	_, nodes := buildOverlay(t, k, 8)
	var done, ok bool
	nodes[2].Lookup(KeyOf([]byte("never-stored")), func(_ []byte, _ int, success bool) {
		done, ok = true, success
	})
	k.Run(10 * time.Second)
	if !done {
		t.Fatal("lookup callback never fired")
	}
	if ok {
		t.Fatal("missing key reported found")
	}
}

func TestLocalStoreAndLookupShortCircuit(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(73)
	lb := &loopback{k: k, nodes: make(map[int]*Node)}
	n := NewNode(k, 5, lb.transportFor(5))
	lb.nodes[5] = n

	key := n.key // numerically closest to itself
	n.Store(key, []byte("mine"))
	if n.LocalData() != 1 {
		t.Fatal("local store did not keep data")
	}
	var got []byte
	n.Lookup(key, func(v []byte, _ int, ok bool) {
		if ok {
			got = v
		}
	})
	if string(got) != "mine" {
		t.Fatalf("local lookup = %q", got)
	}
}

func TestViewBounded(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(74)
	lb := &loopback{k: k, nodes: make(map[int]*Node)}
	n := NewNode(k, 0, lb.transportFor(0))
	lb.nodes[0] = n
	for i := 1; i <= 100; i++ {
		n.AddContact(i)
	}
	if len(n.view) > viewSize {
		t.Fatalf("view size = %d, want <= %d", len(n.view), viewSize)
	}
	n.AddContact(n.id) // self is never added
	if _, ok := n.view[n.id]; ok || len(n.view) > viewSize {
		t.Fatal("self contact added")
	}
}

func TestManyKeysDistributeAcrossNodes(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(75)
	_, nodes := buildOverlay(t, k, 16)
	for i := 0; i < 64; i++ {
		nodes[i%16].Store(KeyOf([]byte("obj-"+strconv.Itoa(i))), []byte{byte(i)})
	}
	k.Run(5 * time.Second)
	holders := 0
	for _, n := range nodes {
		if n.LocalData() > 0 {
			holders++
		}
	}
	if holders < 4 {
		t.Fatalf("keys concentrated on %d nodes", holders)
	}
}

func TestLookupCostsMessages(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(76)
	lb, nodes := buildOverlay(t, k, 12)
	before := lb.sent
	nodes[1].Store(KeyOf([]byte("x")), []byte("v"))
	k.Run(time.Second)
	nodes[7].Lookup(KeyOf([]byte("x")), func([]byte, int, bool) {})
	k.Run(5 * time.Second)
	if lb.sent == before {
		t.Fatal("lookup cost no overlay messages")
	}
	total := uint64(0)
	for _, n := range nodes {
		total += n.Messages
	}
	if total == 0 {
		t.Fatal("per-node message counters not incremented")
	}
}

func TestReceiveRejectsNonDHTPayloads(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(77)
	lb := &loopback{k: k, nodes: make(map[int]*Node)}
	n := NewNode(k, 0, lb.transportFor(0))
	if n.Receive(1, []byte{0x99, 1, 2}) {
		t.Fatal("non-DHT payload accepted")
	}
	if n.Receive(1, nil) {
		t.Fatal("empty payload accepted")
	}
	// Truncated DHT messages must not panic.
	for _, kind := range []byte{msgJoin, msgStore, msgLookup, msgFound} {
		n.Receive(1, []byte{kind})
	}
}
