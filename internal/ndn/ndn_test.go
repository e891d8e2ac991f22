package ndn

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestParseNameAndString(t *testing.T) {
	t.Parallel()
	tests := []struct {
		uri  string
		want string
		n    int
	}{
		{"/", "/", 0},
		{"", "/", 0},
		{"/dapes/discovery", "/dapes/discovery", 2},
		{"dapes/discovery", "/dapes/discovery", 2},
		{"//a//b/", "/a/b", 2},
		{"/damaged-bridge-1533783192/bridge-picture/0", "/damaged-bridge-1533783192/bridge-picture/0", 3},
	}
	for _, tt := range tests {
		t.Run(tt.uri, func(t *testing.T) {
			n := ParseName(tt.uri)
			if n.String() != tt.want {
				t.Fatalf("String = %q, want %q", n.String(), tt.want)
			}
			if n.Len() != tt.n {
				t.Fatalf("Len = %d, want %d", n.Len(), tt.n)
			}
		})
	}
}

func TestNamePrefixAndAppend(t *testing.T) {
	t.Parallel()
	n := ParseName("/a/b/c")
	p := n.Prefix(2)
	if p.String() != "/a/b" {
		t.Fatalf("Prefix(2) = %s", p)
	}
	if got := n.Prefix(10); got.Len() != 3 {
		t.Fatalf("Prefix(10) = %s", got)
	}
	if got := n.Prefix(-1); got.Len() != 0 {
		t.Fatalf("Prefix(-1) = %s", got)
	}
	a := n.Append("d")
	if a.String() != "/a/b/c/d" || n.Len() != 3 {
		t.Fatalf("Append mutated receiver or failed: %s / %s", a, n)
	}
	s := n.AppendSeq(42)
	if s.String() != "/a/b/c/42" {
		t.Fatalf("AppendSeq = %s", s)
	}
	seq, err := s.Seq()
	if err != nil || seq != 42 {
		t.Fatalf("Seq = %d, %v", seq, err)
	}
	if _, err := n.Seq(); err == nil {
		t.Fatal("Seq on non-numeric tail should error")
	}
	if _, err := (Name{}).Seq(); err == nil {
		t.Fatal("Seq on empty name should error")
	}
}

func TestNamePrefixOfEqualCompare(t *testing.T) {
	t.Parallel()
	a := ParseName("/a/b")
	b := ParseName("/a/b/c")
	if !a.IsPrefixOf(b) || b.IsPrefixOf(a) {
		t.Fatal("prefix relation wrong")
	}
	if !a.IsPrefixOf(a) {
		t.Fatal("name should be prefix of itself")
	}
	if !a.Equal(ParseName("/a/b")) || a.Equal(b) {
		t.Fatal("equality wrong")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Fatal("compare ordering wrong")
	}
	if ParseName("/a/c").Compare(b) != 1 {
		t.Fatal("component comparison wrong")
	}
}

func TestVarNumRoundTrip(t *testing.T) {
	t.Parallel()
	vals := []uint64{0, 1, 252, 253, 254, 65535, 65536, 1 << 31, 1 << 40}
	for _, v := range vals {
		b := appendVarNum(nil, v)
		got, n, err := readVarNum(b)
		if err != nil || got != v || n != len(b) {
			t.Fatalf("roundtrip %d: got %d n=%d err=%v", v, got, n, err)
		}
	}
	if _, _, err := readVarNum(nil); err != ErrTruncated {
		t.Fatalf("empty readVarNum err = %v", err)
	}
	if _, _, err := readVarNum([]byte{253, 0}); err != ErrTruncated {
		t.Fatalf("truncated 3-byte form err = %v", err)
	}
}

func TestInterestRoundTrip(t *testing.T) {
	t.Parallel()
	in := &Interest{
		Name:        ParseName("/dapes/discovery"),
		CanBePrefix: true,
		MustBeFresh: true,
		Nonce:       0xDEADBEEF,
		Lifetime:    4 * time.Second,
		HopLimit:    3,
		AppParams:   []byte{1, 2, 3, 4},
	}
	wire := in.Encode()
	out, err := DecodeInterest(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Name.Equal(in.Name) || out.Nonce != in.Nonce ||
		out.Lifetime != in.Lifetime || out.HopLimit != in.HopLimit ||
		!out.CanBePrefix || !out.MustBeFresh ||
		!bytes.Equal(out.AppParams, in.AppParams) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", out, in)
	}
}

func TestInterestMinimalRoundTrip(t *testing.T) {
	t.Parallel()
	in := &Interest{Name: ParseName("/x")}
	out, err := DecodeInterest(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Name.Equal(in.Name) || out.CanBePrefix || len(out.AppParams) != 0 {
		t.Fatalf("minimal roundtrip mismatch: %+v", out)
	}
}

func TestDataRoundTripWithDigest(t *testing.T) {
	t.Parallel()
	d := &Data{
		Name:      ParseName("/damaged-bridge-1533783192/bridge-picture/0"),
		Type:      ContentTypeBlob,
		Freshness: 10 * time.Second,
		Content:   []byte("jpeg bytes"),
	}
	d.SignDigest()
	wire := d.Encode()
	out, err := DecodeData(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !out.Name.Equal(d.Name) || !bytes.Equal(out.Content, d.Content) ||
		out.Freshness != d.Freshness || out.SigInfo.Type != SigTypeDigestSha256 {
		t.Fatalf("roundtrip mismatch: %+v", out)
	}
	if !out.VerifyDigest() {
		t.Fatal("digest verification failed after roundtrip")
	}
	out.Content[0] ^= 0xFF
	if out.VerifyDigest() {
		t.Fatal("digest verified after tampering")
	}
}

func TestDataDigestStableAndNameBound(t *testing.T) {
	t.Parallel()
	d1 := &Data{Name: ParseName("/a/0"), Content: []byte("x")}
	d2 := &Data{Name: ParseName("/a/0"), Content: []byte("x")}
	d3 := &Data{Name: ParseName("/a/1"), Content: []byte("x")}
	if d1.Digest() != d2.Digest() {
		t.Fatal("identical packets produced different digests")
	}
	if d1.Digest() == d3.Digest() {
		t.Fatal("digest does not cover the name")
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Parallel()
	if _, err := DecodeInterest(nil); err == nil {
		t.Fatal("nil interest decoded")
	}
	if _, err := DecodeData([]byte{0x99, 0x00}); err == nil {
		t.Fatal("wrong outer type decoded as data")
	}
	// Interest outer type on DecodeData.
	in := (&Interest{Name: ParseName("/x")}).Encode()
	if _, err := DecodeData(in); err == nil {
		t.Fatal("interest decoded as data")
	}
	// Truncated packet.
	d := &Data{Name: ParseName("/x"), Content: []byte("abc")}
	d.SignDigest()
	wire := d.Encode()
	if _, err := DecodeData(wire[:len(wire)-3]); err == nil {
		t.Fatal("truncated data decoded")
	}
}

// TestDecodeRejectsTypedNameComponents: Name holds generic components only,
// so a name with a component of any other type cannot be decoded as itself.
// Dropping the component would file /a/<type-1 "b"> under "/a" in every table
// keyed by NameKey while relays re-send the original bytes.
func TestDecodeRejectsTypedNameComponents(t *testing.T) {
	t.Parallel()
	if _, err := DecodeInterest(typedComponentInterest()); !errors.Is(err, ErrBadPacket) {
		t.Errorf("Interest name: err = %v, want ErrBadPacket", err)
	}
	if in := NewPacket(typedComponentInterest()).Interest(); in != nil {
		t.Errorf("Interest decoded through Packet as %s", in.Name)
	}
	typedName := appendTLV(nil, tlvName, appendTLV(appendTLV(nil, tlvGenericNameComponent, []byte("a")), 0x01, []byte("b")))
	sigInfo := func(children []byte) []byte { return appendTLV(nil, tlvSignatureInfo, children) }
	digest := appendNonNegTLV(nil, tlvSignatureType, SigTypeDigestSha256)
	sigValue := appendTLV(nil, tlvSignatureValue, nil)
	for what, body := range map[string][]byte{
		"Data name":  bytes.Join([][]byte{typedName, sigInfo(digest), sigValue}, nil),
		"KeyLocator": bytes.Join([][]byte{nestedEncodeName(nil, ParseName("/a")), sigInfo(appendTLV(digest, tlvKeyLocator, typedName)), sigValue}, nil),
	} {
		if _, err := DecodeData(appendTLV(nil, tlvData, body)); !errors.Is(err, ErrBadPacket) {
			t.Errorf("%s: err = %v, want ErrBadPacket", what, err)
		}
	}
}

func TestInterestNameRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(parts []string, nonce uint32) bool {
		n := Name{}
		for _, p := range parts {
			if p == "" {
				continue
			}
			// Name components must not contain '/', which ParseName would
			// split; raw components are arbitrary bytes otherwise.
			n = n.Append(Component(p))
		}
		in := &Interest{Name: n, Nonce: nonce}
		out, err := DecodeInterest(in.Encode())
		return err == nil && out.Name.Equal(n) && out.Nonce == nonce
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDataContentRoundTripProperty(t *testing.T) {
	t.Parallel()
	f := func(content []byte) bool {
		d := &Data{Name: ParseName("/p/0"), Content: content}
		d.SignDigest()
		out, err := DecodeData(d.Encode())
		if err != nil || !out.VerifyDigest() {
			return false
		}
		if len(content) == 0 {
			return len(out.Content) == 0
		}
		return bytes.Equal(out.Content, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendURIMatchesString(t *testing.T) {
	t.Parallel()
	for _, uri := range []string{"/", "/a", "/dapes/discovery/reply/7/3"} {
		n := ParseName(uri)
		if got := string(n.AppendURI(nil)); got != n.String() {
			t.Errorf("AppendURI(%s) = %q, String = %q", uri, got, n.String())
		}
		if got := string(n.AppendURI([]byte("x"))); got != "x"+n.String() {
			t.Errorf("AppendURI onto a prefix = %q", got)
		}
	}
}

// TestNameKeyMemoFollowsTheWireForm: the key is built once and shared — k
// receivers of one broadcast get the same *Data from the Packet and so the
// same string — and it is dropped by exactly the calls that drop the cached
// wire form, so a renamed packet can never be filed under its old name.
//
// Serial on purpose: AllocsPerRun reads the process-wide counter.
func TestNameKeyMemoFollowsTheWireForm(t *testing.T) {
	d := &Data{Name: ParseName("/coll/file/0"), Content: []byte("x")}
	d.SignDigest()
	pkt := NewPacket(d.Encode())
	first, second := pkt.Data().NameKey(), pkt.Data().NameKey()
	if first != "/coll/file/0" || first != second {
		t.Fatalf("NameKey = %q then %q", first, second)
	}
	if n := testing.AllocsPerRun(100, func() { pkt.Data().NameKey() }); n != 0 {
		t.Errorf("memoised NameKey: %v allocs per call, want 0", n)
	}

	if got := d.NameKey(); got != "/coll/file/0" {
		t.Fatalf("sender-side NameKey = %q", got)
	}
	d.Name = ParseName("/coll/file/2")
	d.SignDigest()
	if got := d.NameKey(); got != "/coll/file/2" {
		t.Errorf("after SignDigest: NameKey = %q, want the new name", got)
	}
	d.Name = ParseName("/coll/file/3")
	d.InvalidateWire()
	if got := d.NameKey(); got != "/coll/file/3" {
		t.Errorf("after Data.InvalidateWire: NameKey = %q, want the new name", got)
	}

	in := &Interest{Name: ParseName("/coll/file/0"), Nonce: 1}
	if got := in.NameKey(); got != "/coll/file/0" {
		t.Fatalf("Interest.NameKey = %q", got)
	}
	in.Name = ParseName("/coll/file/9")
	in.InvalidateWire()
	if got := in.NameKey(); got != "/coll/file/9" {
		t.Errorf("after Interest.InvalidateWire: NameKey = %q, want the new name", got)
	}
}
