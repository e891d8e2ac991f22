package ndn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// TLV type numbers from the NDN packet specification (the subset used here).
const (
	tlvInterest              = 0x05
	tlvData                  = 0x06
	tlvName                  = 0x07
	tlvGenericNameComponent  = 0x08
	tlvCanBePrefix           = 0x21
	tlvMustBeFresh           = 0x12
	tlvNonce                 = 0x0A
	tlvInterestLifetime      = 0x0C
	tlvHopLimit              = 0x22
	tlvApplicationParameters = 0x24
	tlvMetaInfo              = 0x14
	tlvContent               = 0x15
	tlvSignatureInfo         = 0x16
	tlvSignatureValue        = 0x17
	tlvContentType           = 0x18
	tlvFreshnessPeriod       = 0x19
	tlvSignatureType         = 0x1B
	tlvKeyLocator            = 0x1C
)

// Errors returned by the TLV decoder.
var (
	ErrTruncated = errors.New("ndn: truncated TLV")
	ErrBadPacket = errors.New("ndn: malformed packet")
	ErrWrongType = errors.New("ndn: unexpected TLV type")
)

// appendVarNum appends an NDN variable-size number (1/3/5/9-octet form).
func appendVarNum(b []byte, v uint64) []byte {
	switch {
	case v < 253:
		return append(b, byte(v))
	case v <= 0xFFFF:
		b = append(b, 253)
		return binary.BigEndian.AppendUint16(b, uint16(v))
	case v <= 0xFFFFFFFF:
		b = append(b, 254)
		return binary.BigEndian.AppendUint32(b, uint32(v))
	default:
		b = append(b, 255)
		return binary.BigEndian.AppendUint64(b, v)
	}
}

// readVarNum decodes a variable-size number, returning the value and the
// number of bytes consumed.
func readVarNum(b []byte) (uint64, int, error) {
	if len(b) == 0 {
		return 0, 0, ErrTruncated
	}
	switch first := b[0]; {
	case first < 253:
		return uint64(first), 1, nil
	case first == 253:
		if len(b) < 3 {
			return 0, 0, ErrTruncated
		}
		return uint64(binary.BigEndian.Uint16(b[1:3])), 3, nil
	case first == 254:
		if len(b) < 5 {
			return 0, 0, ErrTruncated
		}
		return uint64(binary.BigEndian.Uint32(b[1:5])), 5, nil
	default:
		if len(b) < 9 {
			return 0, 0, ErrTruncated
		}
		return binary.BigEndian.Uint64(b[1:9]), 9, nil
	}
}

// varNumLen returns the number of octets appendVarNum writes for v.
func varNumLen(v uint64) int {
	switch {
	case v < 253:
		return 1
	case v <= 0xFFFF:
		return 3
	case v <= 0xFFFFFFFF:
		return 5
	default:
		return 9
	}
}

// tlvLen returns the encoded size of an element of the given type whose value
// is valueLen octets long. Encoders add these up first and then write into
// one buffer of exactly that size.
func tlvLen(typ uint64, valueLen int) int {
	return varNumLen(typ) + varNumLen(uint64(valueLen)) + valueLen
}

// appendTLVHeader appends an element's type and length; the caller appends
// the valueLen octets of value next.
func appendTLVHeader(b []byte, typ uint64, valueLen int) []byte {
	return appendVarNum(appendVarNum(b, typ), uint64(valueLen))
}

// appendTLV appends one type-length-value element.
func appendTLV(b []byte, typ uint64, value []byte) []byte {
	return append(appendTLVHeader(b, typ, len(value)), value...)
}

// nonNegLen returns the size of v as a non-negative integer value: the
// shortest of 1/2/4/8 octets.
func nonNegLen(v uint64) int {
	switch {
	case v <= 0xFF:
		return 1
	case v <= 0xFFFF:
		return 2
	case v <= 0xFFFFFFFF:
		return 4
	default:
		return 8
	}
}

// appendNonNegTLV appends a TLV whose value is a big-endian non-negative
// integer in the shortest of 1/2/4/8 octets.
func appendNonNegTLV(b []byte, typ uint64, v uint64) []byte {
	n := nonNegLen(v)
	b = appendTLVHeader(b, typ, n)
	switch n {
	case 1:
		return append(b, byte(v))
	case 2:
		return binary.BigEndian.AppendUint16(b, uint16(v))
	case 4:
		return binary.BigEndian.AppendUint32(b, uint32(v))
	default:
		return binary.BigEndian.AppendUint64(b, v)
	}
}

// decodeNonNeg parses a shortest-form non-negative integer value.
func decodeNonNeg(b []byte) (uint64, error) {
	switch len(b) {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.BigEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.BigEndian.Uint32(b)), nil
	case 8:
		return binary.BigEndian.Uint64(b), nil
	default:
		return 0, fmt.Errorf("%w: non-negative integer of %d bytes", ErrBadPacket, len(b))
	}
}

// tlvReader walks a flat sequence of TLV elements.
type tlvReader struct {
	buf []byte
	pos int
}

func (r *tlvReader) done() bool { return r.pos >= len(r.buf) }

// next consumes and returns the next element.
func (r *tlvReader) next() (typ uint64, value []byte, err error) {
	typ, n, err := readVarNum(r.buf[r.pos:])
	if err != nil {
		return 0, nil, err
	}
	r.pos += n
	length, n, err := readVarNum(r.buf[r.pos:])
	if err != nil {
		return 0, nil, err
	}
	r.pos += n
	if uint64(len(r.buf)-r.pos) < length {
		return 0, nil, ErrTruncated
	}
	value = r.buf[r.pos : r.pos+int(length)]
	r.pos += int(length)
	return typ, value, nil
}

// expect consumes the next element and errors unless it has the given type.
func (r *tlvReader) expect(typ uint64) ([]byte, error) {
	got, value, err := r.next()
	if err != nil {
		return nil, err
	}
	if got != typ {
		return nil, fmt.Errorf("%w: got %#x, want %#x", ErrWrongType, got, typ)
	}
	return value, nil
}

// nameValueLen returns the size of a name's TLV value: one
// GenericNameComponent element per component.
func nameValueLen(n Name) int {
	size := 0
	for _, c := range n {
		size += tlvLen(tlvGenericNameComponent, len(c))
	}
	return size
}

// encodeName appends the TLV encoding of a name. valueLen is
// nameValueLen(n), which every caller has already computed to size b.
func encodeName(b []byte, n Name, valueLen int) []byte {
	b = appendTLVHeader(b, tlvName, valueLen)
	for _, c := range n {
		b = appendTLVHeader(b, tlvGenericNameComponent, len(c))
		b = append(b, c...)
	}
	return b
}

// A decoded packet's record holds its name inline: inlineComponents
// component headers and inlineURI bytes of URI form. The longest name DAPES
// puts on the air, /dapes/bitmap/<collection>/adv/<owner>/<seq>, has six
// components, and the URIs of the paper's world run 16 to 49 bytes.
const (
	inlineComponents = 6
	inlineURI        = 56
)

// decodeName parses a Name TLV value (the inner component sequence) into the
// name and its URI form. The URI is rendered once, into uriRoom when it fits
// and into one heap buffer otherwise, and viewed as a string; every component
// is a substring of it. The component headers are written into room when it
// has the capacity and to the heap otherwise; either way the name is
// cap-clipped, so appending to it never writes into room. A name that fits
// both costs no object of its own.
//
// The views are sound because the bytes are written here, before the packet
// is visible to anyone, and not again while it is. A record from NewPacket,
// DecodeInterest or DecodeData is never reused, so a retained key or
// component keeps it alive; an Interest decoded into a Room is rewritten by
// the room's next Wrap, so its views live only until its transmission ends,
// and a table that keeps one copies it.
//
// Name can only represent generic components: a name carrying any other
// component type is rejected, never decoded as if the component were absent.
func decodeName(value []byte, room []Component, uriRoom []byte) (Name, string, error) {
	n, size := 0, 0
	for r := (tlvReader{buf: value}); !r.done(); n++ {
		typ, v, err := r.next()
		if err != nil {
			return nil, "", err
		}
		if typ != tlvGenericNameComponent {
			return nil, "", fmt.Errorf("%w: name component of type %#x", ErrBadPacket, typ)
		}
		size += 1 + len(v)
	}
	if n == 0 {
		return nil, "/", nil
	}
	if n > cap(room) {
		room = make([]Component, 0, n)
	}
	name := Name(room[:0:n])
	var uri []byte
	if size <= len(uriRoom) {
		uri = uriRoom[:0:size]
	} else {
		uri = make([]byte, 0, size)
	}
	for r := (tlvReader{buf: value}); !r.done(); {
		_, v, _ := r.next() // validated by the first pass
		uri = append(append(uri, '/'), v...)
		// uri has room for the whole URI, so it never moves, and the bytes
		// just written are final.
		name = append(name, Component(view(uri[len(uri)-len(v):])))
	}
	return name, view(uri), nil
}

// view returns b as a string without copying; b must never be written again.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
