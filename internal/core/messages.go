package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"dapes/internal/bitmap"
	"dapes/internal/ndn"
)

// Protocol namespace (Section IV-B): signaling lives under /dapes.
var (
	discoveryPrefix = ndn.ParseName("/dapes/discovery")
	bitmapPrefix    = ndn.ParseName("/dapes/bitmap")
)

var errBadMessage = errors.New("core: malformed protocol message")

// discoveryInterestName names a peer's discovery beacon. The beacon name is
// the bare discovery prefix (with CanBePrefix) so that discovery replies —
// named under the same prefix — match it for reverse-path forwarding by
// intermediate nodes; the sender rides in ApplicationParameters. Every beacon
// carries the one shared Name value: names are never written through.
func discoveryInterestName() ndn.Name {
	return discoveryPrefix
}

// isDiscoveryInterest recognizes beacon Interests and extracts the sender
// from the application parameters.
func isDiscoveryInterest(in *ndn.Interest) (peerID int, ok bool) {
	if !in.Name.Equal(discoveryPrefix) {
		return 0, false
	}
	if len(in.AppParams) != 4 {
		return 0, false
	}
	return int(binary.BigEndian.Uint32(in.AppParams)), true
}

// appendDiscoveryReplyName appends the name of a discovery Data packet,
// /dapes/discovery/reply/<responder>/<seq>, to dst. The sequence makes
// successive replies distinct.
func appendDiscoveryReplyName(dst ndn.Name, peerID, seq int) ndn.Name {
	return append(append(dst, discoveryPrefix...), "reply",
		ndn.Component(strconv.Itoa(peerID)), ndn.Component(strconv.Itoa(seq)))
}

// isDiscoveryReply recognizes discovery Data and extracts the responder.
func isDiscoveryReply(name ndn.Name) (peerID int, ok bool) {
	if !discoveryPrefix.IsPrefixOf(name) || name.Len() != discoveryPrefix.Len()+3 {
		return 0, false
	}
	if name.At(discoveryPrefix.Len()) != "reply" {
		return 0, false
	}
	id, err := strconv.Atoi(string(name.At(discoveryPrefix.Len() + 1)))
	if err != nil {
		return 0, false
	}
	return id, true
}

// canonicalURI reports whether uri is byte for byte what Name.String prints:
// "/" or "/a/b" with no empty component. The signaling payloads carry names
// as URIs and receivers index their tables with those bytes as they arrive,
// so a payload in any other spelling is malformed.
func canonicalURI(uri []byte) bool {
	if len(uri) == 0 || uri[0] != '/' {
		return false
	}
	return len(uri) == 1 || (uri[len(uri)-1] != '/' && !bytes.Contains(uri, []byte("//")))
}

// appendDiscoveryPayload appends the content of a discovery Data packet to
// b: the metadata names of the collections the responder can offer, as a
// count and then each name's canonical URI behind its length.
func appendDiscoveryPayload(b []byte, offers []ndn.Name) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(offers)))
	for _, o := range offers {
		at := len(b)
		b = o.AppendURI(append(b, 0, 0))
		binary.BigEndian.PutUint16(b[at:], uint16(len(b)-at-2))
	}
	return b
}

// collectionOfMetadataURI strips the trailing /metadata-file/<version>
// components off a metadata URI, leaving the collection's URI; ok is false
// when fewer than three components are present.
func collectionOfMetadataURI(uri []byte) (collection []byte, ok bool) {
	for i := 0; i < 2; i++ {
		cut := bytes.LastIndexByte(uri, '/')
		if cut < 0 {
			return nil, false
		}
		uri = uri[:cut]
	}
	return uri, len(uri) > 0
}

// decodeDiscoveryPayload appends the metadata URIs a discovery payload
// offers to uris — views into buf, each checked canonical — and returns the
// extended slice.
func decodeDiscoveryPayload(uris [][]byte, buf []byte) ([][]byte, error) {
	if len(buf) < 2 {
		return uris, errBadMessage
	}
	count := int(binary.BigEndian.Uint16(buf))
	pos := 2
	for i := 0; i < count; i++ {
		if pos+2 > len(buf) {
			return uris, errBadMessage
		}
		l := int(binary.BigEndian.Uint16(buf[pos:]))
		pos += 2
		if pos+l > len(buf) {
			return uris, errBadMessage
		}
		if !canonicalURI(buf[pos : pos+l]) {
			return uris, errBadMessage
		}
		uris = append(uris, buf[pos:pos+l])
		pos += l
	}
	return uris, nil
}

// appendBitmapPayload appends what travels in bitmap Interests (AppParams)
// and bitmap Data (content) to b: the owner's bitmap for one collection. The
// collection rides as its canonical URI — the key every peer indexes its
// collection state with — so a receiver finds its state from the decoded
// bytes without parsing a name.
func appendBitmapPayload(b []byte, collectionURI string, owner int, bm *bitmap.Bitmap) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(collectionURI)))
	b = append(b, collectionURI...)
	b = binary.BigEndian.AppendUint32(b, uint32(owner))
	return bm.AppendEncode(b)
}

// bitmapPayload is a received bitmap payload. Everything in it views the
// frame: the bitmap stays in its bitmap.Encode form, header checked, until a
// receiver that keeps it decodes it — into the bitmap it already holds for
// Owner when there is one (collectionState.hear).
type bitmapPayload struct {
	CollectionURI []byte
	Owner         int
	Bits          int    // the advertised bitmap's length
	Bitmap        []byte // exactly its encoding
}

func decodeBitmapPayload(buf []byte) (bitmapPayload, error) {
	var p bitmapPayload
	if len(buf) < 2 {
		return p, errBadMessage
	}
	l := int(binary.BigEndian.Uint16(buf))
	pos := 2
	if pos+l+4 > len(buf) {
		return p, errBadMessage
	}
	if !canonicalURI(buf[pos : pos+l]) {
		return p, errBadMessage
	}
	p.CollectionURI = buf[pos : pos+l]
	pos += l
	p.Owner = int(binary.BigEndian.Uint32(buf[pos:]))
	pos += 4
	bits, size, err := bitmap.EncodedLen(buf[pos:])
	if err != nil {
		return p, fmt.Errorf("core: bitmap payload: %w", err)
	}
	p.Bits, p.Bitmap = bits, buf[pos:pos+size]
	return p, nil
}

// collectionKey is a short stable name component for a collection, used in
// bitmap packet names (full URIs ride in the payload).
func collectionKey(collection ndn.Name) ndn.Component {
	sum := uint32(2166136261)
	for _, c := range collection {
		for i := 0; i < len(c); i++ {
			sum ^= uint32(c[i])
			sum *= 16777619
		}
		sum ^= '/'
		sum *= 16777619
	}
	return ndn.Component(fmt.Sprintf("%08x", sum))
}

// bitmapInterestName names a bitmap request: /dapes/bitmap/<collKey>. The
// name is a prefix of the advertisement Data names so that forwarded bitmap
// Interests pull advertisements back across hops; the requester's identity
// and bitmap ride in ApplicationParameters. It is a pure function of the
// collection, so it is built once (collectionState.bitmapName).
func bitmapInterestName(collection ndn.Name) ndn.Name {
	return bitmapPrefix.Append(collectionKey(collection))
}

// appendBitmapDataName appends the name of an advertisement transmission
// under the collection's bitmapInterestName to dst:
// /dapes/bitmap/<collKey>/adv/<owner>/<seq>.
func appendBitmapDataName(dst, interestName ndn.Name, peerID, seq int) ndn.Name {
	return append(append(dst, interestName...), "adv",
		ndn.Component(strconv.Itoa(peerID)), ndn.Component(strconv.Itoa(seq)))
}

// isBitmapInterest reports whether the name is a bitmap Interest.
func isBitmapInterest(name ndn.Name) bool {
	return bitmapPrefix.IsPrefixOf(name) && name.Len() == bitmapPrefix.Len()+1
}

// isBitmapData reports whether the name is a bitmap advertisement Data.
func isBitmapData(name ndn.Name) bool {
	return bitmapPrefix.IsPrefixOf(name) &&
		name.Len() == bitmapPrefix.Len()+4 &&
		name.At(bitmapPrefix.Len()+1) == "adv"
}

// isProtocolName reports whether the name belongs to the /dapes signaling
// namespace (as opposed to collection data).
func isProtocolName(name ndn.Name) bool {
	return name.Len() > 0 && name.At(0) == discoveryPrefix.At(0)
}
