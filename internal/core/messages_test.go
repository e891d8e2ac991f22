package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"

	"dapes/internal/bitmap"
	"dapes/internal/ndn"
)

func TestDiscoveryInterestRecognition(t *testing.T) {
	t.Parallel()
	in := &ndn.Interest{
		Name:        discoveryInterestName(),
		CanBePrefix: true,
		AppParams:   binary.BigEndian.AppendUint32(nil, 42),
	}
	id, ok := isDiscoveryInterest(in)
	if !ok || id != 42 {
		t.Fatalf("isDiscoveryInterest = %d, %v", id, ok)
	}
	// Wrong name.
	bad := &ndn.Interest{Name: ndn.ParseName("/dapes/other"), AppParams: in.AppParams}
	if _, ok := isDiscoveryInterest(bad); ok {
		t.Fatal("wrong name recognized")
	}
	// Missing params.
	if _, ok := isDiscoveryInterest(&ndn.Interest{Name: discoveryInterestName()}); ok {
		t.Fatal("missing params recognized")
	}
}

func TestDiscoveryReplyNames(t *testing.T) {
	t.Parallel()
	name := appendDiscoveryReplyName(ndn.Name{"stale"}[:0], 7, 3)
	id, ok := isDiscoveryReply(name)
	if !ok || id != 7 || name.String() != "/dapes/discovery/reply/7/3" {
		t.Fatalf("isDiscoveryReply(%s) = %d, %v", name, id, ok)
	}
	for _, bad := range []ndn.Name{
		ndn.ParseName("/dapes/discovery"),
		ndn.ParseName("/dapes/discovery/other/7/3"),
		ndn.ParseName("/dapes/discovery/reply/x/3"),
		ndn.ParseName("/other/discovery/reply/7/3"),
	} {
		if _, ok := isDiscoveryReply(bad); ok {
			t.Fatalf("%s wrongly recognized as discovery reply", bad)
		}
	}
}

// rawDiscoveryPayload spells a discovery payload out byte by byte, with the
// URIs as given, canonical or not.
func rawDiscoveryPayload(uris ...string) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(uris)))
	for _, uri := range uris {
		b = binary.BigEndian.AppendUint16(b, uint16(len(uri)))
		b = append(b, uri...)
	}
	return b
}

func TestDiscoveryPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	uris := []string{"/coll-a/metadata-file/12ab34cd", "/coll-b/metadata-file/99ff00aa"}
	offers := []ndn.Name{ndn.ParseName(uris[0]), ndn.ParseName(uris[1])}
	enc := appendDiscoveryPayload([]byte("stale")[:0], offers)
	if want := rawDiscoveryPayload(uris...); !bytes.Equal(enc, want) {
		t.Fatalf("encoded %x, want %x", enc, want)
	}
	out, err := decodeDiscoveryPayload([][]byte{[]byte("stale")}[:0], enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || string(out[0]) != uris[0] || string(out[1]) != uris[1] {
		t.Fatalf("roundtrip = %q", out)
	}
	// Empty list round-trips.
	empty, err := decodeDiscoveryPayload(nil, appendDiscoveryPayload(nil, nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty roundtrip: %q %v", empty, err)
	}
}

func TestDiscoveryPayloadDecodeErrors(t *testing.T) {
	t.Parallel()
	cases := [][]byte{
		nil,
		{0},
		{0, 2, 0, 5, 'a'},       // claims 2 entries, truncated
		{0, 1, 0, 50, 'x', 'y'}, // length exceeds buffer
	}
	for i, buf := range cases {
		if _, err := decodeDiscoveryPayload(nil, buf); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
}

func TestBitmapPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	bm := bitmap.New(100)
	bm.Set(1)
	bm.Set(99)
	// Trailing bytes are not the payload's: the bitmap view stops at its end.
	enc := append(appendBitmapPayload([]byte{0xEE}, "/damaged-bridge-1533783192", 13, bm), 0xEE)
	out, err := decodeBitmapPayload(enc[1:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := bitmap.Decode(out.Bitmap)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.CollectionURI) != "/damaged-bridge-1533783192" || out.Owner != 13 || out.Bits != 100 ||
		!bytes.Equal(out.Bitmap, bm.AppendEncode(nil)) || !reflect.DeepEqual(got, bm) {
		t.Fatalf("roundtrip = %+v", out)
	}
}

func TestBitmapPayloadDecodeErrors(t *testing.T) {
	t.Parallel()
	cases := [][]byte{nil, {0}, {0, 5, 'a', 'b'}, {0, 1, 'x', 0, 0, 0, 1}}
	for i, buf := range cases {
		if _, err := decodeBitmapPayload(buf); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
}

func TestBitmapNamesRecognition(t *testing.T) {
	t.Parallel()
	coll := ndn.ParseName("/coll-x")
	in := bitmapInterestName(coll)
	if !isBitmapInterest(in) {
		t.Fatalf("bitmap interest %s not recognized", in)
	}
	data := appendBitmapDataName(nil, in, 5, 2)
	if !isBitmapData(data) {
		t.Fatalf("bitmap data %s not recognized", data)
	}
	if isBitmapData(in) || isBitmapInterest(data) {
		t.Fatal("interest/data names confused")
	}
	// The interest name must prefix the data name so intermediate nodes can
	// relay advertisements along the reverse path.
	if !in.IsPrefixOf(data) {
		t.Fatalf("%s is not a prefix of %s", in, data)
	}
	if !isProtocolName(in) || !isProtocolName(data) {
		t.Fatal("protocol namespace not recognized")
	}
	if isProtocolName(ndn.ParseName("/coll-x/file/0")) {
		t.Fatal("collection name recognized as protocol")
	}
}

func TestCollectionKeyStability(t *testing.T) {
	t.Parallel()
	a := collectionKey(ndn.ParseName("/coll-a"))
	b := collectionKey(ndn.ParseName("/coll-b"))
	if a == b {
		t.Fatal("distinct collections share a key")
	}
	if a != collectionKey(ndn.ParseName("/coll-a")) {
		t.Fatal("key not stable")
	}
	// Component boundaries matter: /ab/c vs /a/bc must differ.
	if collectionKey(ndn.ParseName("/ab/c")) == collectionKey(ndn.ParseName("/a/bc")) {
		t.Fatal("key ignores component boundaries")
	}
}

func TestBitmapPayloadRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(owner uint16, setBits []uint16) bool {
		bm := bitmap.New(256)
		for _, b := range setBits {
			bm.Set(int(b) % 256)
		}
		out, err := decodeBitmapPayload(appendBitmapPayload(nil, "/c", int(owner), bm))
		if err != nil {
			return false
		}
		got, err := bitmap.Decode(out.Bitmap)
		return err == nil && out.Owner == int(owner) && out.Bits == 256 && reflect.DeepEqual(got, bm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
