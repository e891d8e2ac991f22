package ndn

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// clampDurationMs converts a decoded millisecond count to a Duration,
// saturating instead of overflowing into negative durations on
// adversarially large values.
func clampDurationMs(ms uint64) time.Duration {
	if ms > uint64(math.MaxInt64/int64(time.Millisecond)) {
		ms = uint64(math.MaxInt64 / int64(time.Millisecond))
	}
	return time.Duration(ms) * time.Millisecond
}

// freshnessMs converts a positive FreshnessPeriod to whole milliseconds
// for the wire, rounding sub-millisecond values up to 1 ms: the TLV is
// millisecond-granular, and encoding 500µs as 0 ms would silently turn a
// fresh-able packet into one that can never satisfy MustBeFresh after a
// single hop.
func freshnessMs(d time.Duration) uint64 {
	ms := uint64(d / time.Millisecond)
	if ms == 0 {
		ms = 1
	}
	return ms
}

// ContentTypeBlob is the ContentType of ordinary application payload.
const ContentTypeBlob uint64 = 0

// SignatureType values.
const (
	// SigTypeDigestSha256 is an integrity-only SHA-256 digest "signature".
	SigTypeDigestSha256 uint64 = 0
	// SigTypeEd25519 is an Ed25519 signature over the signed portion. (The
	// NDN spec assigns 5 to Ed25519.)
	SigTypeEd25519 uint64 = 5
)

// Interest is an NDN request for a named Data packet. DAPES carries protocol
// state (e.g. the sender's bitmap) in ApplicationParameters.
//
// Interests follow the encode-once / decode-once contract (see the package
// docs): Encode caches its wire form and DecodeInterest records the frame it
// parsed, so re-broadcasting an unmodified Interest reuses the exact bytes
// that were received. A packet that has been encoded or decoded is immutable;
// callers that need to change a field must InvalidateWire first (or build a
// fresh packet), otherwise Encode keeps returning the stale cached frame.
type Interest struct {
	Name        Name
	CanBePrefix bool
	MustBeFresh bool
	Nonce       uint32
	Lifetime    time.Duration
	HopLimit    uint8
	// AppParams views into the decoded wire buffer (no copy); treat it as
	// read-only.
	AppParams []byte

	// wire is the cached TLV form: the bytes Encode produced, or the exact
	// frame sub-slice DecodeInterest parsed.
	wire []byte
	// nameKey is Name's URI form for NameKey ("" = not built yet). A decoded
	// Interest is born with it: it is the string Name's components are cut
	// from.
	nameKey string
}

// InvalidateWire drops the cached wire form and name key so the next Encode
// and NameKey re-derive them from the current field values. It is the
// explicit escape hatch from the immutability contract; in-simulation
// traffic never needs it.
//
//lint:ignore unreferenced the wireimmut escape hatch for an Interest, pinned by TestNameKeyMemoFollowsTheWireForm
func (i *Interest) InvalidateWire() { i.wire, i.nameKey = nil, "" }

// NameKey returns Name's URI form, built at most once per packet: the string
// every table keyed by packet name indexes with. On a decoded Interest it is
// the string the decoder cut Name's components from, so it costs nothing,
// and the packet is shared by all receivers of its broadcast (Packet), so k
// receivers and every handler they run use one string between them. Like the
// wire form it is covered by the immutability contract: change Name only
// before the first NameKey/Encode, or call InvalidateWire afterwards.
func (i *Interest) NameKey() string {
	if i.nameKey == "" {
		i.nameKey = i.Name.String()
	}
	return i.nameKey
}

// Encode returns the Interest's TLV wire form, serializing at most once: the
// first call caches the encoding (and a decoded Interest is born with the
// received frame cached), so every later call — retransmissions, multi-hop
// relays — returns the same shared byte slice. Callers must not modify it.
func (i *Interest) Encode() []byte {
	if i.wire != nil {
		return i.wire
	}
	// Sizes first, then one buffer of exactly that size.
	nameLen := nameValueLen(i.Name)
	lifetimeMs := uint64(i.Lifetime / time.Millisecond)
	size := tlvLen(tlvName, nameLen) + tlvLen(tlvNonce, 4)
	if i.CanBePrefix {
		size += tlvLen(tlvCanBePrefix, 0)
	}
	if i.MustBeFresh {
		size += tlvLen(tlvMustBeFresh, 0)
	}
	if i.Lifetime > 0 {
		size += tlvLen(tlvInterestLifetime, nonNegLen(lifetimeMs))
	}
	if i.HopLimit > 0 {
		size += tlvLen(tlvHopLimit, 1)
	}
	if len(i.AppParams) > 0 {
		size += tlvLen(tlvApplicationParameters, len(i.AppParams))
	}
	b := make([]byte, 0, tlvLen(tlvInterest, size))
	b = appendTLVHeader(b, tlvInterest, size)
	b = encodeName(b, i.Name, nameLen)
	if i.CanBePrefix {
		b = appendTLVHeader(b, tlvCanBePrefix, 0)
	}
	if i.MustBeFresh {
		b = appendTLVHeader(b, tlvMustBeFresh, 0)
	}
	b = binary.BigEndian.AppendUint32(appendTLVHeader(b, tlvNonce, 4), i.Nonce)
	if i.Lifetime > 0 {
		b = appendNonNegTLV(b, tlvInterestLifetime, lifetimeMs)
	}
	if i.HopLimit > 0 {
		b = append(appendTLVHeader(b, tlvHopLimit, 1), i.HopLimit)
	}
	if len(i.AppParams) > 0 {
		b = appendTLV(b, tlvApplicationParameters, i.AppParams)
	}
	i.wire = b
	return i.wire
}

// interestRecord is everything a decoded Interest owns besides the frame it
// views: the Interest itself and inline room for its name's component
// headers and URI form (decodeName).
type interestRecord struct {
	Interest
	comps [inlineComponents]Component
	uri   [inlineURI]byte
}

// decode parses wire into the (zero) record.
func (rec *interestRecord) decode(wire []byte) error {
	outer := tlvReader{buf: wire}
	body, err := outer.expect(tlvInterest)
	if err != nil {
		return fmt.Errorf("interest: %w", err)
	}
	r := tlvReader{buf: body}
	nameVal, err := r.expect(tlvName)
	if err != nil {
		return fmt.Errorf("interest name: %w", err)
	}
	it := &rec.Interest
	it.Name, it.nameKey, err = decodeName(nameVal, rec.comps[:0], rec.uri[:])
	if err != nil {
		return fmt.Errorf("interest name: %w", err)
	}
	// Cache exactly the packet's own bytes: decoding tolerates trailing
	// garbage after the outer element, which must not ride along on relays.
	it.wire = wire[:outer.pos]
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return fmt.Errorf("interest field: %w", err)
		}
		switch typ {
		case tlvCanBePrefix:
			it.CanBePrefix = true
		case tlvMustBeFresh:
			it.MustBeFresh = true
		case tlvNonce:
			if len(v) != 4 {
				return fmt.Errorf("%w: nonce of %d bytes", ErrBadPacket, len(v))
			}
			it.Nonce = binary.BigEndian.Uint32(v)
		case tlvInterestLifetime:
			ms, err := decodeNonNeg(v)
			if err != nil {
				return err
			}
			it.Lifetime = clampDurationMs(ms)
		case tlvHopLimit:
			if len(v) == 1 {
				it.HopLimit = v[0]
			}
		case tlvApplicationParameters:
			it.AppParams = v // view into wire, not a copy
		}
	}
	return nil
}

// SignatureInfo describes how a Data packet is signed.
type SignatureInfo struct {
	Type uint64
	// KeyLocator names the signing key (empty for digest signatures).
	KeyLocator Name
}

// Data is an NDN Data packet: named, typed content bound to its name by a
// signature.
//
// Like Interest, Data follows the encode-once / decode-once contract: Encode
// caches the wire form (so a Content Store hit or a multi-hop relay answers
// with the original frame, never a re-serialization), and DecodeData records
// the frame it parsed. A packet that has been encoded or decoded is
// immutable; Sign/SignDigest invalidate the cache themselves, any other
// field change requires InvalidateWire first.
//
// The signature covers a byte range of that wire form — Name through
// SignatureInfo, as the packet format specifies — and Digest, VerifyDigest
// and Verify hash exactly that range: on a received packet, the bytes that
// were received.
type Data struct {
	Name      Name
	Type      uint64
	Freshness time.Duration
	// Content and SigValue view into the wire buffer (no copy); treat them
	// as read-only.
	Content  []byte
	SigInfo  SignatureInfo
	SigValue []byte

	// wire is the cached TLV form: the bytes Encode or SignDigest produced,
	// or the exact frame sub-slice DecodeData parsed. signed is the range of
	// it the signature covers (nil exactly when wire is).
	wire   []byte
	signed []byte
	// nameKey is Name's URI form for NameKey ("" = not built yet); a decoded
	// Data is born with it (see Interest).
	nameKey string
}

// InvalidateWire drops the cached wire form and name key so the next Encode
// and NameKey re-derive them from the current field values.
func (d *Data) InvalidateWire() { d.wire, d.signed, d.nameKey = nil, nil, "" }

// NameKey returns Name's URI form, built at most once per packet and shared
// by every receiver and handler (see Interest.NameKey). Sign and SignDigest
// drop it together with the wire form.
func (d *Data) NameKey() string {
	if d.nameKey == "" {
		d.nameKey = d.Name.String()
	}
	return d.nameKey
}

// dataLayout holds the value lengths of a Data packet's nested elements,
// added up before anything is written so the encoder can emit every header
// straight into one buffer of the final size.
type dataLayout struct {
	name, meta, keyName, keyLocator, sigInfo int
	signed                                   int // Name through SignatureInfo, headers included
}

func (d *Data) layout() dataLayout {
	l := dataLayout{name: nameValueLen(d.Name)}
	if d.Type != ContentTypeBlob {
		l.meta += tlvLen(tlvContentType, nonNegLen(d.Type))
	}
	if d.Freshness > 0 {
		l.meta += tlvLen(tlvFreshnessPeriod, nonNegLen(freshnessMs(d.Freshness)))
	}
	l.sigInfo = tlvLen(tlvSignatureType, nonNegLen(d.SigInfo.Type))
	if len(d.SigInfo.KeyLocator) > 0 {
		l.keyName = nameValueLen(d.SigInfo.KeyLocator)
		l.keyLocator = tlvLen(tlvName, l.keyName)
		l.sigInfo += tlvLen(tlvKeyLocator, l.keyLocator)
	}
	l.signed = tlvLen(tlvName, l.name) + tlvLen(tlvMetaInfo, l.meta) +
		tlvLen(tlvContent, len(d.Content)) + tlvLen(tlvSignatureInfo, l.sigInfo)
	return l
}

// appendSigned appends the l.signed octets the signature covers: Name,
// MetaInfo, Content, and SignatureInfo.
func (d *Data) appendSigned(b []byte, l dataLayout) []byte {
	b = encodeName(b, d.Name, l.name)
	b = appendTLVHeader(b, tlvMetaInfo, l.meta)
	if d.Type != ContentTypeBlob {
		b = appendNonNegTLV(b, tlvContentType, d.Type)
	}
	if d.Freshness > 0 {
		b = appendNonNegTLV(b, tlvFreshnessPeriod, freshnessMs(d.Freshness))
	}
	b = appendTLV(b, tlvContent, d.Content)
	b = appendTLVHeader(b, tlvSignatureInfo, l.sigInfo)
	b = appendNonNegTLV(b, tlvSignatureType, d.SigInfo.Type)
	if len(d.SigInfo.KeyLocator) > 0 {
		b = appendTLVHeader(b, tlvKeyLocator, l.keyLocator)
		b = encodeName(b, d.SigInfo.KeyLocator, l.keyName)
	}
	return b
}

// seal builds the packet's wire form — one buffer, sized first — around a
// SignatureValue of sigLen octets, and returns that slot for the caller to
// fill before anyone else can see the buffer.
func (d *Data) seal(sigLen int) []byte {
	l := d.layout()
	body := l.signed + tlvLen(tlvSignatureValue, sigLen)
	wire := make([]byte, 0, tlvLen(tlvData, body))
	wire = appendTLVHeader(wire, tlvData, body)
	start := len(wire)
	wire = d.appendSigned(wire, l)
	end := len(wire)
	wire = appendTLVHeader(wire, tlvSignatureValue, sigLen)
	slot := wire[len(wire):cap(wire)]
	d.wire, d.signed = wire[:cap(wire)], wire[start:end:end]
	return slot
}

// signedBytes returns the octets the signature covers: the signed range of
// the wire form when the packet has one (every decoded packet does), and a
// serialization of the current fields otherwise.
func (d *Data) signedBytes() []byte {
	if d.signed != nil {
		return d.signed
	}
	l := d.layout()
	return d.appendSigned(make([]byte, 0, l.signed), l)
}

// Encode returns the Data packet's TLV wire form, serializing at most once
// (see the type docs). The signature value must already be populated (via
// Sign or SignDigest). Callers must not modify the returned slice.
func (d *Data) Encode() []byte {
	if d.wire == nil {
		copy(d.seal(len(d.SigValue)), d.SigValue)
	}
	return d.wire
}

// dataRecord is a decoded Data's counterpart of interestRecord.
type dataRecord struct {
	Data
	comps [inlineComponents]Component
	uri   [inlineURI]byte
}

// dataElementOrder returns the position of a Data element type in the packet
// format's order, or 0 for a type this decoder does not know.
func dataElementOrder(typ uint64) int {
	switch typ {
	case tlvName:
		return 1
	case tlvMetaInfo:
		return 2
	case tlvContent:
		return 3
	case tlvSignatureInfo:
		return 4
	case tlvSignatureValue:
		return 5
	}
	return 0
}

// decode parses wire into the (zero) record.
func (rec *dataRecord) decode(wire []byte) error {
	outer := tlvReader{buf: wire}
	body, err := outer.expect(tlvData)
	if err != nil {
		return fmt.Errorf("data: %w", err)
	}
	r := tlvReader{buf: body}
	nameVal, err := r.expect(tlvName)
	if err != nil {
		return fmt.Errorf("data name: %w", err)
	}
	d := &rec.Data
	d.Name, d.nameKey, err = decodeName(nameVal, rec.comps[:0], rec.uri[:])
	if err != nil {
		return fmt.Errorf("data name: %w", err)
	}
	d.wire = wire[:outer.pos]
	// Each known element must stand later in the format's order than the
	// known element before it, which also refuses duplicates.
	last := dataElementOrder(tlvName)
	for !r.done() {
		at := r.pos
		typ, v, err := r.next()
		if err != nil {
			return fmt.Errorf("data field: %w", err)
		}
		if o := dataElementOrder(typ); o != 0 {
			if o <= last || (typ == tlvSignatureValue && last != dataElementOrder(tlvSignatureInfo)) {
				return fmt.Errorf("%w: data element %#x out of order", ErrBadPacket, typ)
			}
			last = o
		}
		switch typ {
		case tlvMetaInfo:
			err = d.decodeMetaInfo(v)
		case tlvContent:
			d.Content = v // view into wire, not a copy
		case tlvSignatureInfo:
			err = d.decodeSignatureInfo(v)
		case tlvSignatureValue:
			d.SigValue = v // view into wire, not a copy
			d.signed = body[:at:at]
		}
		if err != nil {
			return err
		}
	}
	if d.signed == nil {
		return fmt.Errorf("%w: data without a signature", ErrBadPacket)
	}
	return nil
}

func (d *Data) decodeMetaInfo(value []byte) error {
	r := tlvReader{buf: value}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return fmt.Errorf("metainfo: %w", err)
		}
		switch typ {
		case tlvContentType:
			if d.Type, err = decodeNonNeg(v); err != nil {
				return err
			}
		case tlvFreshnessPeriod:
			ms, err := decodeNonNeg(v)
			if err != nil {
				return err
			}
			d.Freshness = clampDurationMs(ms)
		}
	}
	return nil
}

func (d *Data) decodeSignatureInfo(value []byte) error {
	r := tlvReader{buf: value}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return fmt.Errorf("signature info: %w", err)
		}
		switch typ {
		case tlvSignatureType:
			if d.SigInfo.Type, err = decodeNonNeg(v); err != nil {
				return err
			}
		case tlvKeyLocator:
			kr := tlvReader{buf: v}
			klVal, err := kr.expect(tlvName)
			if err != nil {
				return fmt.Errorf("key locator: %w", err)
			}
			// Only signed metadata carries a KeyLocator: it takes no inline
			// room and its URI is not kept.
			if d.SigInfo.KeyLocator, _, err = decodeName(klVal, nil, nil); err != nil {
				return fmt.Errorf("key locator: %w", err)
			}
		}
	}
	return nil
}

// Digest returns the SHA-256 digest of the Data packet's signed portion; this
// is the per-packet digest DAPES metadata records (Section IV-C) so receivers
// can verify integrity without a full signature check.
func (d *Data) Digest() [32]byte {
	return sha256.Sum256(d.signedBytes())
}

// SignDigest populates an integrity-only DigestSha256 "signature". It builds
// the final wire form directly — the signed range, then a SignatureValue
// slot it fills with the hash of that range — so a locally built Data is one
// buffer: SigValue views it and Encode returns it.
func (d *Data) SignDigest() {
	d.SigInfo = SignatureInfo{Type: SigTypeDigestSha256}
	slot := d.seal(sha256.Size)
	sum := sha256.Sum256(d.signed)
	copy(slot, sum[:])
	d.SigValue, d.nameKey = slot, ""
}

// Signer produces signatures binding packet content to names. Implemented by
// keys.Key.
type Signer interface {
	// Sign returns a signature over msg.
	Sign(msg []byte) []byte
	// KeyName returns the name placed in the KeyLocator.
	KeyName() Name
}

// Sign populates an Ed25519 signature using the given signer.
func (d *Data) Sign(s Signer) {
	d.InvalidateWire() // signature changes: any cached wire is stale
	d.SigInfo = SignatureInfo{Type: SigTypeEd25519, KeyLocator: s.KeyName()}
	d.SigValue = s.Sign(d.signedBytes())
}

// Verify checks the Ed25519 signature with verify, a function mapping
// (keyName, message, sig) to validity. Implemented by keys.TrustStore.
func (d *Data) Verify(verify func(key Name, msg, sig []byte) bool) bool {
	if d.SigInfo.Type != SigTypeEd25519 {
		return false
	}
	return verify(d.SigInfo.KeyLocator, d.signedBytes(), d.SigValue)
}
