package ndn

import (
	"encoding/binary"
	"time"
)

// The codec this package shipped until the sized single-pass encoder and the
// one-string decoder replaced it, kept as the definition the new one is held
// to (TestEncodeMatchesNestedEncoder): an encoder that builds every nested
// element in a buffer of its own and wraps it, and a decoder that makes one
// string per name component. Hand-built test wires use its helpers too.

func nestedNonNegTLV(b []byte, typ uint64, v uint64) []byte {
	var val []byte
	switch {
	case v <= 0xFF:
		val = []byte{byte(v)}
	case v <= 0xFFFF:
		val = binary.BigEndian.AppendUint16(nil, uint16(v))
	case v <= 0xFFFFFFFF:
		val = binary.BigEndian.AppendUint32(nil, uint32(v))
	default:
		val = binary.BigEndian.AppendUint64(nil, v)
	}
	return appendTLV(b, typ, val)
}

func nestedEncodeName(b []byte, n Name) []byte {
	var inner []byte
	for _, c := range n {
		inner = appendTLV(inner, tlvGenericNameComponent, []byte(c))
	}
	return appendTLV(b, tlvName, inner)
}

func nestedEncodeInterest(i *Interest) []byte {
	var inner []byte
	inner = nestedEncodeName(inner, i.Name)
	if i.CanBePrefix {
		inner = appendTLV(inner, tlvCanBePrefix, nil)
	}
	if i.MustBeFresh {
		inner = appendTLV(inner, tlvMustBeFresh, nil)
	}
	nonce := []byte{byte(i.Nonce >> 24), byte(i.Nonce >> 16), byte(i.Nonce >> 8), byte(i.Nonce)}
	inner = appendTLV(inner, tlvNonce, nonce)
	if i.Lifetime > 0 {
		inner = nestedNonNegTLV(inner, tlvInterestLifetime, uint64(i.Lifetime/time.Millisecond))
	}
	if i.HopLimit > 0 {
		inner = appendTLV(inner, tlvHopLimit, []byte{i.HopLimit})
	}
	if len(i.AppParams) > 0 {
		inner = appendTLV(inner, tlvApplicationParameters, i.AppParams)
	}
	return appendTLV(nil, tlvInterest, inner)
}

func nestedSignedPortion(d *Data) []byte {
	var b []byte
	b = nestedEncodeName(b, d.Name)
	var meta []byte
	if d.Type != ContentTypeBlob {
		meta = nestedNonNegTLV(meta, tlvContentType, d.Type)
	}
	if d.Freshness > 0 {
		meta = nestedNonNegTLV(meta, tlvFreshnessPeriod, freshnessMs(d.Freshness))
	}
	b = appendTLV(b, tlvMetaInfo, meta)
	b = appendTLV(b, tlvContent, d.Content)
	var si []byte
	si = nestedNonNegTLV(si, tlvSignatureType, d.SigInfo.Type)
	if len(d.SigInfo.KeyLocator) > 0 {
		var kl []byte
		kl = nestedEncodeName(kl, d.SigInfo.KeyLocator)
		si = appendTLV(si, tlvKeyLocator, kl)
	}
	b = appendTLV(b, tlvSignatureInfo, si)
	return b
}

func nestedEncodeData(d *Data) []byte {
	inner := nestedSignedPortion(d)
	inner = appendTLV(inner, tlvSignatureValue, d.SigValue)
	return appendTLV(nil, tlvData, inner)
}

func perComponentDecodeName(value []byte) (Name, error) {
	r := &tlvReader{buf: value}
	var n Name
	for !r.done() {
		_, v, err := r.next()
		if err != nil {
			return nil, err
		}
		n = append(n, Component(v))
	}
	return n, nil
}

// perComponentDecodeInterest returns the fields the old decoder read out of a
// well-formed Interest.
func perComponentDecodeInterest(wire []byte) (*Interest, error) {
	outer := &tlvReader{buf: wire}
	body, err := outer.expect(tlvInterest)
	if err != nil {
		return nil, err
	}
	r := &tlvReader{buf: body}
	nameVal, err := r.expect(tlvName)
	if err != nil {
		return nil, err
	}
	name, err := perComponentDecodeName(nameVal)
	if err != nil {
		return nil, err
	}
	it := &Interest{Name: name}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return nil, err
		}
		switch typ {
		case tlvCanBePrefix:
			it.CanBePrefix = true
		case tlvMustBeFresh:
			it.MustBeFresh = true
		case tlvNonce:
			it.Nonce = uint32(v[0])<<24 | uint32(v[1])<<16 | uint32(v[2])<<8 | uint32(v[3])
		case tlvInterestLifetime:
			ms, err := decodeNonNeg(v)
			if err != nil {
				return nil, err
			}
			it.Lifetime = clampDurationMs(ms)
		case tlvHopLimit:
			it.HopLimit = v[0]
		case tlvApplicationParameters:
			it.AppParams = v
		}
	}
	return it, nil
}

// perComponentDecodeData is perComponentDecodeInterest for Data.
func perComponentDecodeData(wire []byte) (*Data, error) {
	outer := &tlvReader{buf: wire}
	body, err := outer.expect(tlvData)
	if err != nil {
		return nil, err
	}
	r := &tlvReader{buf: body}
	nameVal, err := r.expect(tlvName)
	if err != nil {
		return nil, err
	}
	name, err := perComponentDecodeName(nameVal)
	if err != nil {
		return nil, err
	}
	d := &Data{Name: name}
	for !r.done() {
		typ, v, err := r.next()
		if err != nil {
			return nil, err
		}
		switch typ {
		case tlvMetaInfo:
			mr := &tlvReader{buf: v}
			for !mr.done() {
				mtyp, mv, err := mr.next()
				if err != nil {
					return nil, err
				}
				switch mtyp {
				case tlvContentType:
					if d.Type, err = decodeNonNeg(mv); err != nil {
						return nil, err
					}
				case tlvFreshnessPeriod:
					ms, err := decodeNonNeg(mv)
					if err != nil {
						return nil, err
					}
					d.Freshness = clampDurationMs(ms)
				}
			}
		case tlvContent:
			d.Content = v
		case tlvSignatureInfo:
			sr := &tlvReader{buf: v}
			for !sr.done() {
				styp, sv, err := sr.next()
				if err != nil {
					return nil, err
				}
				switch styp {
				case tlvSignatureType:
					if d.SigInfo.Type, err = decodeNonNeg(sv); err != nil {
						return nil, err
					}
				case tlvKeyLocator:
					kr := &tlvReader{buf: sv}
					klVal, err := kr.expect(tlvName)
					if err != nil {
						return nil, err
					}
					if d.SigInfo.KeyLocator, err = perComponentDecodeName(klVal); err != nil {
						return nil, err
					}
				}
			}
		case tlvSignatureValue:
			d.SigValue = v
		}
	}
	return d, nil
}
