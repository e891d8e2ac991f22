package core

import (
	"bytes"
	"testing"

	"dapes/internal/bitmap"
	"dapes/internal/ndn"
)

// The /dapes signaling codecs parse bytes overheard on a lossy broadcast
// medium — any node can put arbitrary AppParams or Data content on the air,
// so the decoders are attack surface exactly like the TLV layer. These
// fuzzers mirror FuzzTLVRoundTrip's seeding and invariants: malformed input
// never panics, and a successfully decoded payload must round-trip through
// encode∘decode to an identical payload (fixed point).

// FuzzDiscoveryPayload explores decodeDiscoveryPayload, the codec for the
// metadata-name lists carried in discovery replies.
func FuzzDiscoveryPayload(f *testing.F) {
	f.Add(appendDiscoveryPayload(nil, nil))
	f.Add(appendDiscoveryPayload(nil, []ndn.Name{
		ndn.ParseName("/field-report/metadata-file/1"),
		ndn.ParseName("/maps/metadata-file/3"),
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})                    // claims 65535 names, has none
	f.Add([]byte{0, 1, 0xFF, 0xFF})              // one name of 65535 bytes, truncated
	f.Add([]byte{0, 2, 0, 1, '/', 0, 0})         // second name empty
	f.Add(append([]byte{0, 1, 0, 4}, "/a/b"...)) // minimal valid single name

	f.Fuzz(func(t *testing.T, buf []byte) {
		uris, err := decodeDiscoveryPayload(nil, buf)
		if err != nil {
			return
		}
		offers := make([]ndn.Name, len(uris))
		for i, uri := range uris {
			offers[i] = ndn.ParseName(string(uri))
		}
		re := appendDiscoveryPayload(nil, offers)
		uris2, err := decodeDiscoveryPayload(nil, re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v\nbuf: %x\nre:  %x", err, buf, re)
		}
		if len(uris) != len(uris2) {
			t.Fatalf("name count changed: %d -> %d", len(uris), len(uris2))
		}
		for i, uri := range uris {
			// Receivers index tables with these bytes as they arrive, so a
			// decoded URI must be the spelling Name.String prints — which is
			// what the re-encoding wrote.
			if !bytes.Equal(uri, uris2[i]) {
				t.Fatalf("name %d not a fixed point (non-canonical?): %q -> %q", i, uri, uris2[i])
			}
		}
	})
}

// FuzzBitmapPayload explores decodeBitmapPayload, the codec for the
// advertisement bitmaps riding in bitmap Interests (AppParams) and bitmap
// Data (content). A malformed overheard frame must never panic the handlers
// that feed availability state from it.
func FuzzBitmapPayload(f *testing.F) {
	full := bitmap.New(64)
	full.SetAll()
	sparse := bitmap.New(17)
	sparse.Set(0)
	sparse.Set(16)
	f.Add(appendBitmapPayload(nil, "/field-report", 3, full))
	f.Add(appendBitmapPayload(nil, "/x", 0, sparse))
	f.Add(appendBitmapPayload(nil, "/", 1<<20, bitmap.New(0)))
	f.Add([]byte{})
	f.Add([]byte{0, 0})                                          // no owner, no bitmap
	f.Add([]byte{0xFF, 0xFF, '/', 'a'})                          // huge URI length claim
	f.Add([]byte{0, 1, '/', 0, 0, 0, 7})                         // bitmap header truncated
	f.Add([]byte{0, 1, '/', 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF}) // bitmap claims 2^32-1 bits

	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := decodeBitmapPayload(buf)
		if err != nil {
			return
		}
		// The bitmap stays encoded, as a view ending where its encoding ends;
		// the header check must be all a later decode needs.
		bm, err := bitmap.Decode(p.Bitmap)
		if err != nil {
			t.Fatalf("decode succeeded with an undecodable bitmap view: %v", err)
		}
		if bm.Len() != p.Bits {
			t.Fatalf("bitmap view holds %d bits, payload says %d", bm.Len(), p.Bits)
		}
		if _, size, _ := bitmap.EncodedLen(p.Bitmap); size != len(p.Bitmap) {
			t.Fatalf("bitmap view is %d bytes, its encoding %d", len(p.Bitmap), size)
		}
		into := bitmap.New(p.Bits)
		if err := into.DecodeFrom(p.Bitmap); err != nil || !into.Equal(bm) {
			t.Fatalf("decoding in place differs from a fresh decode: %v", err)
		}
		re := appendBitmapPayload(nil, string(p.CollectionURI), p.Owner, bm)
		p2, err := decodeBitmapPayload(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v\nbuf: %x\nre:  %x", err, buf, re)
		}
		if got := ndn.ParseName(string(p.CollectionURI)).String(); got != string(p.CollectionURI) {
			t.Fatalf("collection decoded in non-canonical form: %q (canonical %q)", p.CollectionURI, got)
		}
		bm2, err := bitmap.Decode(p2.Bitmap)
		if err != nil || !bytes.Equal(p.CollectionURI, p2.CollectionURI) || p.Owner != p2.Owner || !bm.Equal(bm2) {
			t.Fatalf("payload not a fixed point:\nfirst:  %+v\nsecond: %+v", p, p2)
		}
		// The re-encoding itself must be stable byte-for-byte, since bitmap
		// payloads are compared and unioned by content across peers.
		if re2 := appendBitmapPayload(nil, string(p2.CollectionURI), p2.Owner, bm2); !bytes.Equal(re, re2) {
			t.Fatalf("encode not stable: %x vs %x", re, re2)
		}
	})
}
