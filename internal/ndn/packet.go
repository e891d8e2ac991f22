package ndn

import (
	"crypto/sha256"
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

// ContentType values for Data packets.
const (
	// ContentTypeBlob is ordinary application payload.
	ContentTypeBlob uint64 = 0
	// ContentTypeKey marks a Data packet carrying a public key.
	ContentTypeKey uint64 = 2
)

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
	// nameKey memoizes Name.String() for NameKey ("" = not built yet).
	nameKey string
}

// InvalidateWire drops the cached wire form and name key so the next Encode
// and NameKey re-derive them from the current field values. It is the
// explicit escape hatch from the immutability contract; in-simulation
// traffic never needs it.
func (i *Interest) InvalidateWire() { i.wire, i.nameKey = nil, "" }

// NameKey returns Name's URI form, built at most once per packet: the string
// every table keyed by packet name indexes with. A decoded Interest is
// shared by all receivers of its broadcast (Packet), so k receivers and
// every handler they run pay for one string between them. Like the wire
// form it is covered by the immutability contract: change Name only before
// the first NameKey/Encode, or call InvalidateWire afterwards.
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
	var inner []byte
	inner = encodeName(inner, i.Name)
	if i.CanBePrefix {
		inner = appendTLV(inner, tlvCanBePrefix, nil)
	}
	if i.MustBeFresh {
		inner = appendTLV(inner, tlvMustBeFresh, nil)
	}
	nonce := []byte{byte(i.Nonce >> 24), byte(i.Nonce >> 16), byte(i.Nonce >> 8), byte(i.Nonce)}
	inner = appendTLV(inner, tlvNonce, nonce)
	if i.Lifetime > 0 {
		inner = appendNonNegTLV(inner, tlvInterestLifetime, uint64(i.Lifetime/time.Millisecond))
	}
	if i.HopLimit > 0 {
		inner = appendTLV(inner, tlvHopLimit, []byte{i.HopLimit})
	}
	if len(i.AppParams) > 0 {
		inner = appendTLV(inner, tlvApplicationParameters, i.AppParams)
	}
	i.wire = appendTLV(nil, tlvInterest, inner)
	return i.wire
}

// DecodeInterest parses a TLV-encoded Interest. The decode is zero-copy:
// variable-length fields (AppParams) are sub-slice views into wire, and the
// packet's wire form is cached so a later Encode returns the received bytes
// verbatim. The caller must treat wire as immutable from here on.
func DecodeInterest(wire []byte) (*Interest, error) {
	outer := &tlvReader{buf: wire}
	body, err := outer.expect(tlvInterest)
	if err != nil {
		return nil, fmt.Errorf("interest: %w", err)
	}
	r := &tlvReader{buf: body}
	nameVal, err := r.expect(tlvName)
	if err != nil {
		return nil, fmt.Errorf("interest name: %w", err)
	}
	name, err := decodeName(nameVal)
	if err != nil {
		return nil, fmt.Errorf("interest name: %w", err)
	}
	// Cache exactly the packet's own bytes: decoding tolerates trailing
	// garbage after the outer element, which must not ride along on relays.
	it := &Interest{Name: name, wire: wire[:outer.pos]}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("interest field: %w", err)
		}
		switch typ {
		case tlvCanBePrefix:
			it.CanBePrefix = true
		case tlvMustBeFresh:
			it.MustBeFresh = true
		case tlvNonce:
			if len(v) != 4 {
				return nil, fmt.Errorf("%w: nonce of %d bytes", ErrBadPacket, len(v))
			}
			it.Nonce = uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3])
		case tlvInterestLifetime:
			ms, err := decodeNonNeg(v)
			if err != nil {
				return nil, err
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
	return it, nil
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
type Data struct {
	Name      Name
	Type      uint64
	Freshness time.Duration
	// Content and SigValue view into the decoded wire buffer (no copy);
	// treat them as read-only.
	Content  []byte
	SigInfo  SignatureInfo
	SigValue []byte

	// wire is the cached TLV form: the bytes Encode produced, or the exact
	// frame sub-slice DecodeData parsed.
	wire []byte
	// nameKey memoizes Name.String() for NameKey ("" = not built yet).
	nameKey string
}

// InvalidateWire drops the cached wire form and name key so the next Encode
// and NameKey re-derive them from the current field values.
func (d *Data) InvalidateWire() { d.wire, d.nameKey = nil, "" }

// NameKey returns Name's URI form, built at most once per packet and shared
// by every receiver and handler (see Interest.NameKey). Sign and SignDigest
// drop it together with the wire form.
func (d *Data) NameKey() string {
	if d.nameKey == "" {
		d.nameKey = d.Name.String()
	}
	return d.nameKey
}

// signedPortion serializes the fields covered by the signature: Name,
// MetaInfo, Content, and SignatureInfo.
func (d *Data) signedPortion() []byte {
	var b []byte
	b = encodeName(b, d.Name)
	var meta []byte
	if d.Type != ContentTypeBlob {
		meta = appendNonNegTLV(meta, tlvContentType, d.Type)
	}
	if d.Freshness > 0 {
		meta = appendNonNegTLV(meta, tlvFreshnessPeriod, freshnessMs(d.Freshness))
	}
	b = appendTLV(b, tlvMetaInfo, meta)
	b = appendTLV(b, tlvContent, d.Content)
	var si []byte
	si = appendNonNegTLV(si, tlvSignatureType, d.SigInfo.Type)
	if len(d.SigInfo.KeyLocator) > 0 {
		var kl []byte
		kl = encodeName(kl, d.SigInfo.KeyLocator)
		si = appendTLV(si, tlvKeyLocator, kl)
	}
	b = appendTLV(b, tlvSignatureInfo, si)
	return b
}

// Encode returns the Data packet's TLV wire form, serializing at most once
// (see the type docs). The signature value must already be populated (via
// Sign or SignDigest). Callers must not modify the returned slice.
func (d *Data) Encode() []byte {
	if d.wire != nil {
		return d.wire
	}
	inner := d.signedPortion()
	inner = appendTLV(inner, tlvSignatureValue, d.SigValue)
	d.wire = appendTLV(nil, tlvData, inner)
	return d.wire
}

// DecodeData parses a TLV-encoded Data packet. The decode is zero-copy:
// Content and SigValue are sub-slice views into wire, and the packet's wire
// form is cached so a later Encode returns the received bytes verbatim. The
// caller must treat wire as immutable from here on.
func DecodeData(wire []byte) (*Data, error) {
	outer := &tlvReader{buf: wire}
	body, err := outer.expect(tlvData)
	if err != nil {
		return nil, fmt.Errorf("data: %w", err)
	}
	r := &tlvReader{buf: body}
	nameVal, err := r.expect(tlvName)
	if err != nil {
		return nil, fmt.Errorf("data name: %w", err)
	}
	name, err := decodeName(nameVal)
	if err != nil {
		return nil, fmt.Errorf("data name: %w", err)
	}
	d := &Data{Name: name, wire: wire[:outer.pos]}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return nil, fmt.Errorf("data field: %w", err)
		}
		switch typ {
		case tlvMetaInfo:
			mr := &tlvReader{buf: v}
			for !mr.done() {
				mtyp, mv, err := mr.next()
				if err != nil {
					return nil, fmt.Errorf("metainfo: %w", err)
				}
				switch mtyp {
				case tlvContentType:
					ct, err := decodeNonNeg(mv)
					if err != nil {
						return nil, err
					}
					d.Type = ct
				case tlvFreshnessPeriod:
					ms, err := decodeNonNeg(mv)
					if err != nil {
						return nil, err
					}
					d.Freshness = clampDurationMs(ms)
				}
			}
		case tlvContent:
			d.Content = v // view into wire, not a copy
		case tlvSignatureInfo:
			sr := &tlvReader{buf: v}
			for !sr.done() {
				styp, sv, err := sr.next()
				if err != nil {
					return nil, fmt.Errorf("signature info: %w", err)
				}
				switch styp {
				case tlvSignatureType:
					st, err := decodeNonNeg(sv)
					if err != nil {
						return nil, err
					}
					d.SigInfo.Type = st
				case tlvKeyLocator:
					kr := &tlvReader{buf: sv}
					klVal, err := kr.expect(tlvName)
					if err != nil {
						return nil, fmt.Errorf("key locator: %w", err)
					}
					kl, err := decodeName(klVal)
					if err != nil {
						return nil, err
					}
					d.SigInfo.KeyLocator = kl
				}
			}
		case tlvSignatureValue:
			d.SigValue = v // view into wire, not a copy
		}
	}
	return d, nil
}

// Digest returns the SHA-256 digest of the Data packet's signed portion; this
// is the per-packet digest DAPES metadata records (Section IV-C) so receivers
// can verify integrity without a full signature check.
func (d *Data) Digest() [32]byte {
	return sha256.Sum256(d.signedPortion())
}

// SignDigest populates an integrity-only DigestSha256 "signature".
func (d *Data) SignDigest() {
	d.SigInfo = SignatureInfo{Type: SigTypeDigestSha256}
	sum := d.Digest()
	d.SigValue = sum[:]
	d.InvalidateWire() // signature changed: any cached wire is stale
}

// VerifyDigest checks a DigestSha256 signature.
func (d *Data) VerifyDigest() bool {
	if d.SigInfo.Type != SigTypeDigestSha256 || len(d.SigValue) != 32 {
		return false
	}
	sum := sha256.Sum256(d.signedPortion())
	for i, b := range sum {
		if d.SigValue[i] != b {
			return false
		}
	}
	return true
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
	d.SigInfo = SignatureInfo{Type: SigTypeEd25519, KeyLocator: s.KeyName()}
	d.SigValue = s.Sign(d.signedPortion())
	d.InvalidateWire() // signature changed: any cached wire is stale
}

// Verify checks the Ed25519 signature with verify, a function mapping
// (keyName, message, sig) to validity. Implemented by keys.TrustStore.
func (d *Data) Verify(verify func(key Name, msg, sig []byte) bool) bool {
	if d.SigInfo.Type != SigTypeEd25519 {
		return false
	}
	return verify(d.SigInfo.KeyLocator, d.signedPortion(), d.SigValue)
}
