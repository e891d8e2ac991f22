// Package routing implements the two MANET routing protocols the paper's
// IP-based baselines rely on: DSDV (proactive destination-sequenced
// distance-vector, used by Bithoc) and DSR (reactive dynamic source routing,
// used by Ekta). Both run over the same phy broadcast medium as DAPES, so
// the overhead comparison of Fig. 10 counts identical transmission units.
//
// IP addressing is modeled by integer node IDs — which is faithful to the
// paper's observation that in off-the-grid scenarios IP addresses are merely
// unique node identifiers.
package routing

import (
	"encoding/binary"
	"errors"

	"dapes/internal/phy"
)

// Frame kinds carried over the medium. The first byte distinguishes routing
// frames (0x10) from NDN packets (0x05/0x06), so both stacks can share a
// medium in mixed experiments.
const frameMagic = 0x10

// Frame protocol numbers.
const (
	protoDSDVUpdate = 1
	protoData       = 2
	protoRREQ       = 3
	protoRREP       = 4
)

// The broadcast pseudo-address.
const Broadcast = -1

var errShortFrame = errors.New("routing: short frame")

// frame is the common unicast/broadcast envelope.
//
// A decoded frame is a view of the wire it came from (docs/CONTRACTS.md §3):
// Payload aliases the received buffer, which every radio in range shares and
// nobody writes while it is on the air, so handlers only read it; its
// capacity is clipped to its length, so an append by a handler reallocates
// instead of writing into the wire. The wire is the medium's pooled buffer
// and is reused once the transmission's completion event returns, so the
// view is valid until the handler returns: a consumer copies what it keeps.
// The route record stays in wire form until decodeRoute, which a router
// calls only once it has accepted the frame — most receptions are unicasts
// overheard by a radio that is not their next hop, and those are rejected
// from the fixed header without allocating.
type frame struct {
	Proto   byte
	Src     int
	Dst     int
	NextHop int // Broadcast for flooded frames
	TTL     int
	// Seq is an origin-assigned sequence number used to deduplicate
	// link-layer repetitions of the same frame (DSR data and RREP).
	Seq uint32
	// Route is the full source route for DSR data/RREP and the accumulated
	// route record for RREQ; empty for DSDV.
	Route   []int
	Payload []byte

	routeWire []byte // a decoded frame's route record, 4 bytes per hop
}

// headerLen is the fixed part of a frame: magic, proto, src, dst, next hop,
// seq, TTL and the route length.
const headerLen = 20

func putU32(b []byte, v int) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(int32(v)))
}

func getI32(b []byte) int {
	return int(int32(binary.BigEndian.Uint32(b)))
}

// wireLen is the frame's encoded size.
func (f *frame) wireLen() int { return headerLen + 4*len(f.Route) + len(f.Payload) }

// encode appends the serialized frame to b; given wireLen bytes of spare
// capacity, it writes into b's own array.
func (f *frame) encode(b []byte) []byte {
	return append(f.appendHeader(b), f.Payload...)
}

// wire encodes f into a buffer from m's wire pool, for BroadcastOwnedAfter.
func (f *frame) wire(m *phy.Medium) []byte { return f.encode(m.Wire(f.wireLen())) }

// appendHeader appends the frame's fixed header and route record to b: the
// wire up to the payload, which a caller that builds its payload in place
// appends itself.
func (f *frame) appendHeader(b []byte) []byte {
	b = append(b, frameMagic, f.Proto)
	b = putU32(b, f.Src)
	b = putU32(b, f.Dst)
	b = putU32(b, f.NextHop)
	b = binary.BigEndian.AppendUint32(b, f.Seq)
	b = append(b, byte(f.TTL), byte(len(f.Route)))
	for _, h := range f.Route {
		b = putU32(b, h)
	}
	return b
}

// decodeFrame parses b's header and returns the frame as a view of b: nothing
// is copied or allocated (see frame). Route is left for decodeRoute.
func decodeFrame(b []byte) (frame, error) {
	if len(b) < headerLen || b[0] != frameMagic {
		return frame{}, errShortFrame
	}
	end := headerLen + 4*int(b[19])
	if len(b) < end {
		return frame{}, errShortFrame
	}
	return frame{
		Proto:     b[1],
		Src:       getI32(b[2:]),
		Dst:       getI32(b[6:]),
		NextHop:   getI32(b[10:]),
		Seq:       binary.BigEndian.Uint32(b[14:]),
		TTL:       int(b[18]),
		Payload:   b[end:len(b):len(b)],
		routeWire: b[headerLen:end],
	}, nil
}

// decodeRoute materialises a decoded frame's route record into Route — the
// frame's one owned allocation, which handlers are free to keep. Its one
// spare slot past the last hop is for a route request's receiver to append
// itself in place.
func (f *frame) decodeRoute() {
	if len(f.routeWire) == 0 {
		return
	}
	n := len(f.routeWire) / 4
	f.Route = make([]int, n, n+1)
	for i := range f.Route {
		f.Route[i] = getI32(f.routeWire[4*i:])
	}
}

// Router is the common interface of the two protocols: best-effort unicast
// of opaque payloads to a destination node ID.
type Router interface {
	// ID returns the node's address.
	ID() int
	// Send attempts to deliver payload to dst, returning false when no
	// route exists (DSDV) or buffering while discovery runs (DSR returns
	// true in that case). It copies what it needs of payload before it
	// returns, so the caller may reuse the buffer.
	Send(dst int, payload []byte) bool
	// SetDeliver installs the upper-layer receive callback.
	SetDeliver(fn func(src int, payload []byte))
	// Start starts the protocol's periodic machinery.
	Start()
	// ControlTransmissions counts routing-protocol frames sent by this node
	// (route updates, discovery floods) — the paper's overhead accounting
	// attributes these to the baseline stacks.
	ControlTransmissions() uint64
}
