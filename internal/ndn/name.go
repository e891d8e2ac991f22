// Package ndn implements the Named Data Networking primitives DAPES builds
// on: hierarchical names, the TLV wire format, Interest and Data packets,
// SHA-256 content digests, and Ed25519 packet signatures.
//
// The subset implemented here follows the NDN Packet Format Specification
// (reference [1] of the paper) closely enough that packets round-trip through
// a real TLV encoding, while omitting fields DAPES never uses.
//
// # Encode-once / decode-once
//
// Packets retain their wire form, the way YaNFD and other production NDN
// forwarders do. Interest.Encode and Data.Encode serialize at most once —
// lengths added up first, then one buffer of exactly that size — and cache
// the bytes; DecodeInterest and DecodeData parse without per-field copies
// (variable-length fields are views into the frame buffer) and cache the
// frame they parsed, so re-broadcasting an unmodified packet — a CS hit, a
// multi-hop relay, a retransmission — reuses the exact received bytes. The
// cost of this is an immutability contract: once a packet has been encoded
// or decoded, its fields and its wire buffer must not be modified
// (InvalidateWire is the explicit escape hatch). The Packet type extends the
// same idea across receivers: one broadcast, one shared lazy decode.
//
// A packet costs a constant number of heap objects whatever its name's
// length or its receiver count. Built locally it is its wire buffer (a
// Data's signature covers a range of that buffer and SigValue views it).
// Decoded it is one record holding the Packet, the Interest or Data, the
// name's component headers and the name's URI form, of which every
// Component is a substring and which is the packet's NameKey; a name past
// the record's room spills its headers or its URI into one heap object
// each. An Interest the broadcast medium hears is not even that: it is
// decoded into a Room inside the medium's pooled transmission record, and
// its views last until the transmission ends. Digests and signature checks
// hash the signed range of the bytes that were received; nothing is
// serialized again on the receive side.
package ndn

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Component is one label of a hierarchical NDN name. Components are opaque
// byte strings; DAPES uses human-readable labels and decimal sequence
// numbers.
type Component string

// Name is a hierarchical NDN name: an ordered list of components, written in
// URI form as "/component/component/...".
type Name []Component

// ParseName parses a URI-form name such as "/dapes/discovery". Empty
// components produced by doubled slashes are dropped. The root name "/" is
// the empty Name.
func ParseName(uri string) Name {
	uri = strings.TrimPrefix(uri, "/")
	if uri == "" {
		return Name{}
	}
	parts := strings.Split(uri, "/")
	n := make(Name, 0, len(parts))
	for _, p := range parts {
		if p != "" {
			n = append(n, Component(p))
		}
	}
	return n
}

// String returns the URI form of the name, in one allocation: the length is
// added up before anything is written.
func (n Name) String() string {
	if len(n) == 0 {
		return "/"
	}
	size := 0
	for _, c := range n {
		size += 1 + len(c)
	}
	var b strings.Builder
	b.Grow(size)
	for _, c := range n {
		b.WriteByte('/')
		b.WriteString(string(c))
	}
	return b.String()
}

// AppendURI appends the URI form of the name — the bytes String returns — to
// dst and returns the extended slice. With a stack buffer as dst it turns a
// name into a map key without allocating: m[string(n.AppendURI(buf[:0]))].
func (n Name) AppendURI(dst []byte) []byte {
	if len(n) == 0 {
		return append(dst, '/')
	}
	for _, c := range n {
		dst = append(dst, '/')
		dst = append(dst, c...)
	}
	return dst
}

// Append returns a new name with the given components appended. The receiver
// is not modified.
func (n Name) Append(components ...Component) Name {
	out := make(Name, 0, len(n)+len(components))
	out = append(out, n...)
	out = append(out, components...)
	return out
}

// AppendSeq returns a new name with a decimal sequence-number component
// appended, e.g. name.AppendSeq(7) -> ".../7". DAPES identifies individual
// packets in a file this way (Section IV-A).
func (n Name) AppendSeq(seq int) Name {
	return n.Append(Component(strconv.Itoa(seq)))
}

// Len returns the number of components.
func (n Name) Len() int { return len(n) }

// At returns the i-th component. It panics if i is out of range, matching
// slice semantics.
func (n Name) At(i int) Component { return n[i] }

// Prefix returns the first k components as a new name. k is clamped to
// [0, len].
func (n Name) Prefix(k int) Name {
	if k < 0 {
		k = 0
	}
	if k > len(n) {
		k = len(n)
	}
	out := make(Name, k)
	copy(out, n[:k])
	return out
}

// IsPrefixOf reports whether n is a (non-strict) prefix of other.
func (n Name) IsPrefixOf(other Name) bool {
	if len(n) > len(other) {
		return false
	}
	for i, c := range n {
		if other[i] != c {
			return false
		}
	}
	return true
}

// Equal reports whether the two names are component-wise identical.
func (n Name) Equal(other Name) bool {
	return len(n) == len(other) && n.IsPrefixOf(other)
}

// Compare orders names first by shared components (lexicographic per
// component), then by length; a proper prefix sorts before its extensions.
// This is NDN canonical order restricted to generic components.
func (n Name) Compare(other Name) int {
	for i := 0; i < len(n) && i < len(other); i++ {
		if n[i] != other[i] {
			if n[i] < other[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(n) < len(other):
		return -1
	case len(n) > len(other):
		return 1
	default:
		return 0
	}
}

// Seq parses the final component as a decimal sequence number.
func (n Name) Seq() (int, error) {
	if len(n) == 0 {
		return 0, errors.New("empty name has no sequence component")
	}
	v, err := strconv.Atoi(string(n[len(n)-1]))
	if err != nil {
		return 0, fmt.Errorf("sequence component %q: %w", n[len(n)-1], err)
	}
	return v, nil
}

// Clone returns a copy of the name's component headers. The components'
// bytes are shared, as strings are immutable: a clone of a name decoded
// into a Room views the room, and dies with it.
func (n Name) Clone() Name {
	out := make(Name, len(n))
	copy(out, n)
	return out
}
