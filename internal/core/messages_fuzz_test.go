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
	f.Add(discoveryPayload{}.encode())
	f.Add(discoveryPayload{MetadataURIs: [][]byte{
		[]byte("/field-report/metadata-file/1"),
		[]byte("/maps/metadata-file/3"),
	}}.encode())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF})                    // claims 65535 names, has none
	f.Add([]byte{0, 1, 0xFF, 0xFF})              // one name of 65535 bytes, truncated
	f.Add([]byte{0, 2, 0, 1, '/', 0, 0})         // second name empty
	f.Add(append([]byte{0, 1, 0, 4}, "/a/b"...)) // minimal valid single name

	f.Fuzz(func(t *testing.T, buf []byte) {
		p, err := decodeDiscoveryPayload(buf)
		if err != nil {
			return
		}
		re := p.encode()
		p2, err := decodeDiscoveryPayload(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v\nbuf: %x\nre:  %x", err, buf, re)
		}
		if len(p.MetadataURIs) != len(p2.MetadataURIs) {
			t.Fatalf("name count changed: %d -> %d", len(p.MetadataURIs), len(p2.MetadataURIs))
		}
		for i, uri := range p.MetadataURIs {
			if !bytes.Equal(uri, p2.MetadataURIs[i]) {
				t.Fatalf("name %d not a fixed point: %s -> %s", i, uri, p2.MetadataURIs[i])
			}
			// Receivers index tables with these bytes as they arrive, so a
			// decoded URI must be the spelling Name.String prints.
			if got := ndn.ParseName(string(uri)).String(); got != string(uri) {
				t.Fatalf("name %d decoded in non-canonical form: %q (canonical %q)", i, uri, got)
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
	for _, p := range []bitmapPayload{
		{CollectionURI: []byte("/field-report"), Owner: 3, Bitmap: full},
		{CollectionURI: []byte("/x"), Owner: 0, Bitmap: sparse},
		{CollectionURI: []byte("/"), Owner: 1 << 20, Bitmap: bitmap.New(0)},
	} {
		f.Add(p.encode())
	}
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
		if p.Bitmap == nil {
			t.Fatal("decode succeeded with nil bitmap")
		}
		re := p.encode()
		p2, err := decodeBitmapPayload(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v\nbuf: %x\nre:  %x", err, buf, re)
		}
		if got := ndn.ParseName(string(p.CollectionURI)).String(); got != string(p.CollectionURI) {
			t.Fatalf("collection decoded in non-canonical form: %q (canonical %q)", p.CollectionURI, got)
		}
		if !bytes.Equal(p.CollectionURI, p2.CollectionURI) || p.Owner != p2.Owner || !p.Bitmap.Equal(p2.Bitmap) {
			t.Fatalf("payload not a fixed point:\nfirst:  %+v\nsecond: %+v", p, p2)
		}
		// The re-encoding itself must be stable byte-for-byte, since bitmap
		// payloads are compared and unioned by content across peers.
		if !bytes.Equal(re, p2.encode()) {
			t.Fatalf("encode not stable: %x vs %x", re, p2.encode())
		}
	})
}
