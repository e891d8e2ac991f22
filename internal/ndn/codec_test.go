package ndn

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

type fixedSigner struct{ name Name }

func (s fixedSigner) Sign(msg []byte) []byte {
	sum := sha256.Sum256(msg)
	return append(sum[:], sum[:]...) // 64 octets, like Ed25519
}
func (s fixedSigner) KeyName() Name { return s.name }

// randomName draws 0–12 components, among them empty ones, ones holding a
// '/', and 300-byte ones (past the 1-octet length form).
func randomName(rng *rand.Rand) Name {
	n := Name{}
	for i := rng.Intn(13); i > 0; i-- {
		switch rng.Intn(6) {
		case 0:
			n = append(n, "")
		case 1:
			n = append(n, Component(strings.Repeat("x", 300)))
		case 2:
			n = append(n, "a/b")
		default:
			b := make([]byte, 1+rng.Intn(12))
			rng.Read(b)
			n = append(n, Component(b))
		}
	}
	return n
}

// boundaryValue draws a non-negative integer on either side of the
// 1/2/4/8-octet value forms.
func boundaryValue(rng *rand.Rand) uint64 {
	edges := []uint64{0, 1, 0xFF, 0x100, 0xFFFF, 0x10000, 0xFFFFFFFF, 0x100000000, 1 << 40}
	return edges[rng.Intn(len(edges))]
}

// TestEncodeMatchesNestedEncoder holds the sized single-pass encoder to the
// nested one it replaced, byte for byte, and the one-string decoder to the
// per-component one, field for field, over random packets that turn every
// optional element on and off.
func TestEncodeMatchesNestedEncoder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 2000; round++ {
		it := &Interest{
			Name:        randomName(rng),
			CanBePrefix: rng.Intn(2) == 0,
			MustBeFresh: rng.Intn(2) == 0,
			Nonce:       rng.Uint32(),
			Lifetime:    time.Duration(boundaryValue(rng)) * time.Millisecond,
			HopLimit:    uint8(rng.Intn(3)),
		}
		if rng.Intn(2) == 0 {
			it.AppParams = make([]byte, rng.Intn(400))
			rng.Read(it.AppParams)
		}
		want := nestedEncodeInterest(it)
		// AppendEncode writes the same bytes after what dst holds, and
		// caches no view of dst.
		if n, got := it.EncodedLen(), it.AppendEncode([]byte("pre")); n != len(want) ||
			!bytes.Equal(got, append([]byte("pre"), want...)) || it.wire != nil {
			t.Fatalf("round %d: EncodedLen %d, AppendEncode %x (cached %x), nested %x", round, n, got, it.wire, want)
		}
		wire := it.Encode()
		if !bytes.Equal(wire, want) {
			t.Fatalf("round %d: Interest %+v\nencodes %x\nnested  %x", round, it, wire, want)
		}
		if cap(wire) != len(wire) {
			t.Fatalf("round %d: Interest buffer sized %d for %d bytes", round, cap(wire), len(wire))
		}
		got, err := decodeInterest(wire)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if again := got.AppendEncode(nil); !bytes.Equal(again, wire) || got.EncodedLen() != len(wire) {
			t.Fatalf("round %d: a decoded Interest appends %x (EncodedLen %d), received %x", round, again, got.EncodedLen(), wire)
		}
		ref, err := perComponentDecodeInterest(wire)
		if err != nil {
			t.Fatalf("round %d: reference decoder: %v", round, err)
		}
		if !got.Name.Equal(ref.Name) || got.Name.String() != ref.Name.String() || got.NameKey() != ref.Name.String() {
			t.Fatalf("round %d: name %q (key %q), reference %q", round, got.Name, got.NameKey(), ref.Name)
		}
		got.Name, got.wire, got.nameKey = ref.Name, nil, ""
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("round %d: decoded %+v, reference %+v", round, got, ref)
		}

		d := &Data{
			Name:      randomName(rng),
			Freshness: time.Duration(boundaryValue(rng)) * time.Millisecond,
			Content:   make([]byte, rng.Intn(400)),
		}
		rng.Read(d.Content)
		if rng.Intn(2) == 0 {
			d.Type = boundaryValue(rng)
		}
		switch rng.Intn(3) {
		case 0:
			d.SignDigest()
		case 1:
			d.Sign(fixedSigner{randomName(rng)})
		default: // never signed: SignatureInfo type 0, empty SignatureValue
		}
		wantD := nestedEncodeData(d)
		wireD := d.Encode()
		if !bytes.Equal(wireD, wantD) {
			t.Fatalf("round %d: Data %+v\nencodes %x\nnested  %x", round, d, wireD, wantD)
		}
		if cap(wireD) != len(wireD) {
			t.Fatalf("round %d: Data buffer sized %d for %d bytes", round, cap(wireD), len(wireD))
		}
		if !bytes.Equal(d.signedBytes(), nestedSignedPortion(d)) {
			t.Fatalf("round %d: signed range %x, nested signed portion %x", round, d.signedBytes(), nestedSignedPortion(d))
		}
		gotD, err := decodeData(wireD)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		refD, err := perComponentDecodeData(wireD)
		if err != nil {
			t.Fatalf("round %d: reference decoder: %v", round, err)
		}
		if gotD.Digest() != sha256.Sum256(nestedSignedPortion(refD)) {
			t.Fatalf("round %d: digest of the received range differs from the re-serialised one", round)
		}
		if gotD.Name.String() != refD.Name.String() || gotD.NameKey() != refD.Name.String() ||
			gotD.SigInfo.KeyLocator.String() != refD.SigInfo.KeyLocator.String() {
			t.Fatalf("round %d: name %q (key %q), reference %q", round, gotD.Name, gotD.NameKey(), refD.Name)
		}
		gotD.Name, gotD.SigInfo.KeyLocator = refD.Name, refD.SigInfo.KeyLocator
		gotD.wire, gotD.signed, gotD.nameKey = nil, nil, ""
		if !reflect.DeepEqual(gotD, refD) {
			t.Fatalf("round %d: decoded %+v, reference %+v", round, gotD, refD)
		}
	}
}

// TestWirePathAllocationBudget pins what a packet costs in heap objects,
// whatever its name's length up to the inline room.
func TestWirePathAllocationBudget(t *testing.T) {
	name := ParseName("/dapes/bitmap/0a1b2c3d/adv/17/4")
	// Exactly the inline room: as many components, as long a URI.
	long := ParseName("/dapes/bitmap/0a1b2c3d/adv/17/" + strings.Repeat("4", inlineURI-len("/dapes/bitmap/0a1b2c3d/adv/17/")))
	if len(long) != inlineComponents || len(long.String()) != inlineURI {
		t.Fatalf("test name has %d components and %d URI bytes, inline room is %d and %d",
			len(long), len(long.String()), inlineComponents, inlineURI)
	}
	payload := make([]byte, 200)
	budget := func(what string, max float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, fn); got > max {
			t.Errorf("%s: %v objects, budget %v", what, got, max)
		}
	}
	for _, n := range []Name{name, long} {
		budget("Encode of a fresh Interest", 1, func() {
			it := Interest{Name: n, CanBePrefix: true, Nonce: 7, Lifetime: time.Second, AppParams: payload}
			it.Encode()
		})
		wire := make([]byte, 0, 512)
		budget("AppendEncode of a fresh Interest into a pooled wire", 0, func() {
			it := Interest{Name: n, CanBePrefix: true, Nonce: 7, Lifetime: time.Second, AppParams: payload}
			if wire = it.AppendEncode(wire[:0]); len(wire) != it.EncodedLen() {
				t.Fatalf("AppendEncode wrote %d bytes, EncodedLen says %d", len(wire), it.EncodedLen())
			}
		})
		budget("SignDigest+Encode of a fresh Data", 1, func() {
			d := Data{Name: n, Freshness: time.Second, Content: payload}
			d.SignDigest()
			d.Encode()
		})
		itWire := (&Interest{Name: n, Nonce: 7, AppParams: payload}).Encode()
		d := &Data{Name: n, Content: payload}
		d.SignDigest()
		dWire := d.Encode()
		budget("Encode of an encoded Data", 0, func() { d.Encode() })
		budget("Name.String", 1, func() { _ = n.String() })
		budget("NewPacket(wire).Interest()", 1, func() {
			if NewPacket(itWire).Interest() == nil {
				t.Fatal("interest did not decode")
			}
		})
		budget("NewPacket(wire).Data()", 1, func() {
			if NewPacket(dWire).Data() == nil {
				t.Fatal("data did not decode")
			}
		})
		pkt := NewPacket(dWire)
		pkt.Data()
		budget("second receiver", 0, func() { pkt.Data() })
		budget("NameKey on a decoded packet", 0, func() { _ = pkt.Data().NameKey() })
		budget("Digest on a decoded Data", 0, func() { _ = pkt.Data().Digest() })
	}
	// A name past the component room spills the headers, one past the URI
	// room the URI: one more object each, not one per component or byte.
	for _, tc := range []struct {
		what string
		name Name
		max  float64
	}{
		{"past the component room", name.Append("z"), 2},
		{"past the URI room", long.Prefix(len(long) - 1).Append(long[len(long)-1] + "4"), 2},
		{"past both", long.Append("z"), 3},
	} {
		itWire := (&Interest{Name: tc.name, Nonce: 7}).Encode()
		budget("NewPacket(wire).Interest() "+tc.what, tc.max, func() {
			if NewPacket(itWire).Interest() == nil {
				t.Fatal("interest did not decode")
			}
		})
		d := &Data{Name: tc.name, Content: payload}
		d.SignDigest()
		dWire, uri := d.Encode(), tc.name.String()
		budget("NewPacket(wire).Data() "+tc.what, tc.max, func() {
			if got := NewPacket(dWire).Data(); got == nil || got.NameKey() != uri {
				t.Fatal("data did not decode to its name")
			}
		})
	}
}

// TestDecodedKeysOutliveThePacket: a decoded packet's NameKey and components
// view the record's inline URI, so whatever a table keeps of them must stay
// byte-identical once the packet itself is unreachable, the collector has
// run and the allocator has handed out the memory of many more packets.
func TestDecodedKeysOutliveThePacket(t *testing.T) {
	const uri = "/field-report/image-000/7"
	decode := func(uri string) (key string, comp Component) {
		d := &Data{Name: ParseName(uri), Content: []byte("x")}
		d.SignDigest()
		got := NewPacket(append([]byte(nil), d.Encode()...)).Data()
		return got.NameKey(), got.Name[1]
	}
	key, comp := decode(uri)
	runtime.GC()
	for i := 0; i < 10_000; i++ {
		decode(fmt.Sprintf("/other-report/image-%03d/%d", i%1000, i))
	}
	runtime.GC()
	if key != uri || comp != "image-000" {
		t.Fatalf("kept key %q and component %q, want %q and %q", key, comp, uri, "image-000")
	}
}

// TestDecodedNameIsCapClipped: a decoded Name's component headers live in
// the packet's record, which every receiver of the broadcast shares; no
// operation on the name may write there.
func TestDecodedNameIsCapClipped(t *testing.T) {
	t.Parallel()
	for _, uri := range []string{"/a", "/a/b/c", "/1/2/3/4/5/6/7/8", "/1/2/3/4/5/6/7/8/9"} {
		d := &Data{Name: ParseName(uri), Content: []byte("x")}
		d.Sign(fixedSigner{ParseName("/key/1")})
		pkt := NewPacket(d.Encode())
		got := pkt.Data()
		if got == nil {
			t.Fatal(pkt.Err())
		}
		if cap(got.Name) != len(got.Name) || cap(got.SigInfo.KeyLocator) != len(got.SigInfo.KeyLocator) {
			t.Fatalf("%s: decoded name has spare capacity (%d/%d)", uri, len(got.Name), cap(got.Name))
		}
		appended := append(got.Name, "grown")
		appended[0] = "overwritten"
		for _, derived := range []Name{got.Name.Append("x"), got.Name.Prefix(1), got.Name.Clone()} {
			derived[0] = "overwritten"
		}
		if got.Name.String() != uri || got.NameKey() != uri {
			t.Fatalf("%s: decoded name now %q (key %q)", uri, got.Name, got.NameKey())
		}
		if got.SigInfo.KeyLocator.String() != "/key/1" {
			t.Fatalf("%s: key locator now %q", uri, got.SigInfo.KeyLocator)
		}
	}
}

// dataWithUnknownMetaChild hand-builds a digest-signed Data whose MetaInfo
// carries a child this decoder does not know (FinalBlockId, 0x1A), the way a
// spec-following producer would sign it: over the bytes as they stand. It
// returns the wire and the offset of the child's value octet.
func dataWithUnknownMetaChild() (wire []byte, childAt int) {
	var signed []byte
	signed = nestedEncodeName(signed, ParseName("/coll/file/0"))
	meta := appendNonNegTLV(nil, tlvFreshnessPeriod, 1000)
	meta = appendTLV(meta, 0x1A, []byte{0x42})
	signed = appendTLV(signed, tlvMetaInfo, meta)
	childAt = len(signed) - 1
	signed = appendTLV(signed, tlvContent, []byte("payload"))
	signed = appendTLV(signed, tlvSignatureInfo, appendNonNegTLV(nil, tlvSignatureType, SigTypeDigestSha256))
	sum := sha256.Sum256(signed)
	body := appendTLV(signed, tlvSignatureValue, sum[:])
	wire = appendTLV(nil, tlvData, body)
	return wire, childAt + len(wire) - len(body)
}

// TestDigestCoversReceivedBytes: the digest is over the signed range as it
// was received, so an element the decoder skips is still protected, and a
// packet signed over such an element verifies.
func TestDigestCoversReceivedBytes(t *testing.T) {
	t.Parallel()
	wire, childAt := dataWithUnknownMetaChild()
	if wire[childAt] != 0x42 {
		t.Fatalf("offset %d holds %#x, not the unknown child's value", childAt, wire[childAt])
	}
	d, err := decodeData(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !digestVerifies(d) {
		t.Fatal("a Data signed over an unknown MetaInfo child does not verify")
	}
	sigAt := len(wire) - sha256.Size - 2
	if want := sha256.Sum256(wire[2:sigAt]); d.Digest() != want {
		t.Fatalf("Digest() is not SHA-256 of wire[2:%d]", sigAt)
	}
	if d.Freshness != time.Second || string(d.Content) != "payload" {
		t.Fatalf("decoded %+v", d)
	}

	tampered := append([]byte(nil), wire...)
	tampered[childAt] ^= 0xFF
	d, err = decodeData(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if digestVerifies(d) {
		t.Fatal("a byte inside the signed range was altered in flight and the packet still verifies")
	}
}

// TestDecodeRejectsOutOfOrderData: the signed range is Name up to
// SignatureValue as received, so a Data whose elements stand in any other
// order, twice, or without a signature is malformed.
func TestDecodeRejectsOutOfOrderData(t *testing.T) {
	t.Parallel()
	name := nestedEncodeName(nil, ParseName("/x"))
	meta := appendTLV(nil, tlvMetaInfo, nil)
	content := appendTLV(nil, tlvContent, []byte("c"))
	sigInfo := appendTLV(nil, tlvSignatureInfo, appendNonNegTLV(nil, tlvSignatureType, SigTypeDigestSha256))
	sigValue := appendTLV(nil, tlvSignatureValue, make([]byte, 32))
	unknown := appendTLV(nil, 0x7F, []byte("?"))
	build := func(elems ...[]byte) []byte {
		return appendTLV(nil, tlvData, bytes.Join(elems, nil))
	}
	for what, wire := range map[string][]byte{
		"in order":                build(name, meta, content, sigInfo, sigValue),
		"no MetaInfo, no Content": build(name, sigInfo, sigValue),
		"unknown elements":        build(name, unknown, meta, content, unknown, sigInfo, unknown, sigValue, unknown),
	} {
		if _, err := decodeData(wire); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}
	for what, wire := range map[string][]byte{
		"Content before MetaInfo":      build(name, content, meta, sigInfo, sigValue),
		"SignatureInfo before Content": build(name, meta, sigInfo, content, sigValue),
		"SignatureValue first":         build(name, sigValue, meta, content, sigInfo),
		"Content after SignatureValue": build(name, meta, sigInfo, sigValue, content),
		"two Contents":                 build(name, meta, content, content, sigInfo, sigValue),
		"two Names":                    build(name, name, sigInfo, sigValue),
		"no SignatureInfo":             build(name, meta, content, sigValue),
		"no SignatureValue":            build(name, meta, content, sigInfo),
		"name only":                    build(name),
	} {
		if _, err := decodeData(wire); !errors.Is(err, ErrBadPacket) {
			t.Errorf("%s: err = %v, want ErrBadPacket", what, err)
		}
		if NewPacket(wire).Data() != nil {
			t.Errorf("%s: decoded through Packet", what)
		}
	}
}

// decodeInterest and decodeData decode a wire through NewPacket, the one
// decode entry point: the packet, or its decode error, or ErrWrongType for a
// well-formed packet of the other kind.
func decodeInterest(wire []byte) (*Interest, error) {
	p := NewPacket(wire)
	if it := p.Interest(); it != nil || p.Err() != nil {
		return it, p.Err()
	}
	return nil, ErrWrongType
}

func decodeData(wire []byte) (*Data, error) {
	p := NewPacket(wire)
	if d := p.Data(); d != nil || p.Err() != nil {
		return d, p.Err()
	}
	return nil, ErrWrongType
}

// digestVerifies reports whether d carries a DigestSha256 signature equal to
// the digest of its signed range.
func digestVerifies(d *Data) bool {
	return d.SigInfo.Type == SigTypeDigestSha256 && len(d.SigValue) == sha256.Size && d.Digest() == [sha256.Size]byte(d.SigValue)
}
