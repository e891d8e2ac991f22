package ndn

import "fmt"

// Packet is the decode-once view of one on-air NDN packet: it holds the
// immutable wire bytes and parses them lazily, at most once, no matter how
// many receivers ask. The broadcast medium attaches one Packet per
// transmission to every delivered frame, so k receivers of the same
// broadcast share a single decode — receiver two onward pays zero parse work
// and zero allocations (pinned by TestDeliveredFrameSharedDecode in
// internal/phy).
//
// Sharing one decoded packet across receivers is safe under the simulator's
// wire-path contract (docs/PERFORMANCE.md "Wire path"): the sim kernel is
// single-threaded per trial, and received packets are immutable — handlers
// read the Interest/Data they are given and never write through it. Packets
// from different trials never meet, so the Runner's trial-level parallelism
// is unaffected.
type Packet struct {
	wire []byte
	// interest or data is the storage parse decodes into, chosen by the
	// frame's first octet when the Packet is made (both nil for a frame that
	// is neither).
	interest *interestRecord
	data     *dataRecord
	// shared is the sender's own record of a frame WrapData made: Data
	// returns it, and there is nothing to parse.
	shared *Data
	err    error
	parsed bool
}

// interestPacket and dataPacket are what NewPacket allocates: the Packet and
// the record it will decode into, as one object.
type (
	interestPacket struct {
		Packet
		rec interestRecord
	}
	dataPacket struct {
		Packet
		rec dataRecord
	}
)

// NewPacket wraps wire bytes (one TLV packet) without parsing them. The
// bytes must not be modified afterwards.
//
// The Packet and the Interest or Data it will become are one record, with
// inline room for the name's component headers and URI form: a decoded
// packet is that one object, however many receivers ask, for a name of up
// to inlineComponents components and inlineURI bytes of URI.
func NewPacket(wire []byte) *Packet {
	switch {
	case len(wire) > 0 && wire[0] == tlvInterest:
		r := new(interestPacket)
		r.wire, r.interest = wire, &r.rec
		return &r.Packet
	case len(wire) > 0 && wire[0] == tlvData:
		r := new(dataPacket)
		r.wire, r.data = wire, &r.rec
		return &r.Packet
	}
	return &Packet{wire: wire}
}

// Room is caller-owned storage that received Interests are decoded into, so
// that hearing one costs no object. The broadcast medium keeps one in each
// pooled transmission record: the Interest a transmission carries lives
// exactly as long as the transmission, and whoever keeps any of it past
// that — a table key, a name — copies what it keeps. A Data the sender
// already holds as a record rides along as that record (WrapData).
type Room struct {
	pkt Packet
	rec interestRecord
}

// Wrap is NewPacket for a room: an Interest is decoded, on first use, into
// the room itself, with no allocation. Every view an earlier Wrap handed out
// — the Packet, its Interest, the Interest's Name, components and NameKey —
// is dead from this call on, so the owner wraps again only once nobody holds
// them. Any other frame gets a NewPacket of its own: Data records are
// write-once and never reused.
func (r *Room) Wrap(wire []byte) *Packet {
	if len(wire) == 0 || wire[0] != tlvInterest {
		return NewPacket(wire)
	}
	// decode fills a zero Interest and overwrites the inline room it uses
	// before anything reads it.
	r.rec.Interest = Interest{}
	r.pkt = Packet{wire: wire, interest: &r.rec}
	return &r.pkt
}

// WrapData is Wrap for a Data its sender holds as a record: the room's
// Packet views d.Encode() as already parsed, and its Data is d itself, so
// every receiver shares the sender's record at no decode and no object. It
// relies on Data records being write-once: nobody changes d once it is on
// the air. The Packet is dead from the room's next Wrap or WrapData on; d
// is not.
func (r *Room) WrapData(d *Data) *Packet {
	r.pkt = Packet{wire: d.Encode(), shared: d, parsed: true}
	return &r.pkt
}

// LooksLikePacket reports whether wire starts like an NDN Interest or Data
// TLV. It is the cheap first-octet gate carriers use to decide whether a
// frame is worth attaching a decode-once view to at all — the IP baselines
// share the same medium with non-NDN payloads that should never pay for NDN
// machinery.
func LooksLikePacket(wire []byte) bool {
	return len(wire) > 0 && (wire[0] == tlvInterest || wire[0] == tlvData)
}

// parse decodes the wire on first use, dispatching on the outer TLV type
// exactly like the per-node dispatch switches it replaces (0x05 Interest,
// 0x06 Data; anything else is a malformed frame and drops).
func (p *Packet) parse() {
	if p.parsed {
		return
	}
	p.parsed = true
	switch {
	case p.interest != nil:
		p.err = p.interest.decode(p.wire)
	case p.data != nil:
		p.err = p.data.decode(p.wire)
	case len(p.wire) == 0:
		p.err = fmt.Errorf("%w: empty frame", ErrBadPacket)
	default:
		p.err = fmt.Errorf("%w: unknown outer type %#x", ErrBadPacket, p.wire[0])
	}
}

// Interest returns the decoded Interest, or nil when the frame is not a
// well-formed Interest. All callers see the same *Interest instance.
func (p *Packet) Interest() *Interest {
	p.parse()
	if p.interest == nil || p.err != nil {
		return nil
	}
	return &p.interest.Interest
}

// Data returns the decoded Data packet, or nil when the frame is not a
// well-formed Data. All callers see the same *Data instance.
func (p *Packet) Data() *Data {
	if p.shared != nil {
		return p.shared
	}
	p.parse()
	if p.data == nil || p.err != nil {
		return nil
	}
	return &p.data.Data
}

// Err returns the decode error, if any (nil for well-formed packets).
//
//lint:ignore unreferenced TestDecodeErrors and TestFrameOutsideMediumStillParses read why a frame did not decode
func (p *Packet) Err() error {
	p.parse()
	return p.err
}
