package metadata

import (
	"bytes"
	"math/rand"
	"testing"

	"dapes/internal/keys"
	"dapes/internal/ndn"
)

func testFiles() []File {
	return []File{
		{Name: "bridge-picture", Content: bytes.Repeat([]byte{0xAB}, 2500)}, // 3 packets @1000
		{Name: "bridge-location", Content: []byte("lat=34.07 lon=-118.44")}, // 1 packet
	}
}

func build(t *testing.T, format Format) *BuildResult {
	t.Helper()
	res, err := BuildCollection(ndn.ParseName("/damaged-bridge-1533783192"), testFiles(), 1000, format, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBuildCollectionLayout(t *testing.T) {
	t.Parallel()
	res := build(t, FormatPacketDigest)
	m := res.Manifest
	if m.TotalPackets() != 4 || len(res.Packets) != 4 {
		t.Fatalf("TotalPackets = %d, packets = %d", m.TotalPackets(), len(res.Packets))
	}
	if m.Files[0].PacketCount != 3 || m.Files[1].PacketCount != 1 {
		t.Fatalf("packet counts = %d, %d", m.Files[0].PacketCount, m.Files[1].PacketCount)
	}
	// Global ordering: file 0 packets 0..2, then file 1 packet 0 (bit 3).
	scratch := ndn.Name{"stale"}
	name, err := m.AppendPacketName(scratch[:0], 3)
	if err != nil {
		t.Fatal(err)
	}
	want := "/damaged-bridge-1533783192/bridge-location/0"
	if name.String() != want {
		t.Fatalf("AppendPacketName(3) = %s, want %s", name, want)
	}
	if got := m.GlobalIndex(1, 0); got != 3 {
		t.Fatalf("GlobalIndex(1,0) = %d", got)
	}
	f, p, err := m.Locate(2)
	if err != nil || f != 0 || p != 2 {
		t.Fatalf("Locate(2) = %d,%d,%v", f, p, err)
	}
	if _, _, err := m.Locate(4); err == nil {
		t.Fatal("Locate past end succeeded")
	}
	if _, err := m.AppendPacketName(nil, -1); err == nil {
		t.Fatal("AppendPacketName(-1) succeeded")
	}
}

func TestGlobalIndexOfName(t *testing.T) {
	t.Parallel()
	res := build(t, FormatPacketDigest)
	m := res.Manifest
	for i, p := range res.Packets {
		if got := m.GlobalIndexOfName(p.Name); got != i {
			t.Fatalf("GlobalIndexOfName(%s) = %d, want %d", p.Name, got, i)
		}
	}
	bad := []ndn.Name{
		ndn.ParseName("/other/bridge-picture/0"),
		ndn.ParseName("/damaged-bridge-1533783192/unknown/0"),
		ndn.ParseName("/damaged-bridge-1533783192/bridge-picture/99"),
		ndn.ParseName("/damaged-bridge-1533783192/bridge-picture/x"),
		ndn.ParseName("/damaged-bridge-1533783192/bridge-picture"),
	}
	for _, n := range bad {
		if m.GlobalIndexOfName(n) != -1 {
			t.Fatalf("GlobalIndexOfName(%s) != -1", n)
		}
	}
}

func TestVerifyPacketDigestFormat(t *testing.T) {
	t.Parallel()
	res := build(t, FormatPacketDigest)
	m := res.Manifest
	for i, p := range res.Packets {
		if !m.VerifyPacket(i, p) {
			t.Fatalf("packet %d failed immediate verification", i)
		}
	}
	// Tampered content fails.
	evil := *res.Packets[0]
	evil.Content = []byte("evil")
	evil.InvalidateWire() // the digest is over the wire form: rebuild it from the fields
	if m.VerifyPacket(0, &evil) {
		t.Fatal("tampered packet verified")
	}
	// Wrong index fails.
	if m.VerifyPacket(1, res.Packets[0]) {
		t.Fatal("packet verified at wrong index")
	}
	if m.VerifyPacket(99, res.Packets[0]) {
		t.Fatal("out-of-range verified")
	}
}

func TestVerifyFileMerkleFormat(t *testing.T) {
	t.Parallel()
	res := build(t, FormatMerkle)
	m := res.Manifest
	// Per the paper, per-packet verification is unavailable in this format.
	if m.VerifyPacket(0, res.Packets[0]) {
		t.Fatal("merkle format verified a single packet")
	}
	if !m.VerifyFile(0, res.Packets[:3]) {
		t.Fatal("complete file failed merkle verification")
	}
	if !m.VerifyFile(1, res.Packets[3:4]) {
		t.Fatal("single-packet file failed merkle verification")
	}
	if m.VerifyFile(0, res.Packets[:2]) {
		t.Fatal("incomplete file verified")
	}
	evil := *res.Packets[1]
	evil.Content = []byte("evil")
	evil.InvalidateWire()
	if m.VerifyFile(0, []*ndn.Data{res.Packets[0], &evil, res.Packets[2]}) {
		t.Fatal("tampered file verified")
	}
	if m.VerifyFile(5, nil) || m.VerifyFile(-1, nil) {
		t.Fatal("out-of-range file verified")
	}
}

func TestVerifyFileDigestFormat(t *testing.T) {
	t.Parallel()
	res := build(t, FormatPacketDigest)
	if !res.Manifest.VerifyFile(0, res.Packets[:3]) {
		t.Fatal("digest-format whole-file verification failed")
	}
}

func TestManifestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	for _, format := range []Format{FormatPacketDigest, FormatMerkle} {
		t.Run(format.String(), func(t *testing.T) {
			res := build(t, format)
			rt, err := DecodeManifest(res.Manifest.Encode())
			if err != nil {
				t.Fatal(err)
			}
			if !rt.Collection.Equal(res.Manifest.Collection) || rt.Format != format ||
				len(rt.Files) != len(res.Manifest.Files) {
				t.Fatalf("roundtrip mismatch: %+v", rt)
			}
			for i, f := range rt.Files {
				orig := res.Manifest.Files[i]
				if f.Name != orig.Name || f.PacketCount != orig.PacketCount ||
					f.Root != orig.Root || len(f.Digests) != len(orig.Digests) {
					t.Fatalf("file %d mismatch", i)
				}
			}
		})
	}
}

func TestDecodeManifestErrors(t *testing.T) {
	t.Parallel()
	res := build(t, FormatPacketDigest)
	enc := res.Manifest.Encode()
	cases := map[string][]byte{
		"nil":        nil,
		"bad magic":  append([]byte("XXXX"), enc[4:]...),
		"truncated":  enc[:len(enc)-5],
		"bad format": append(append([]byte{}, enc[:4]...), append([]byte{99}, enc[5:]...)...),
	}
	for name, buf := range cases {
		if _, err := DecodeManifest(buf); err == nil {
			t.Fatalf("%s decoded", name)
		}
	}
}

func TestMerkleManifestSmallerThanDigestManifest(t *testing.T) {
	t.Parallel()
	// The paper's trade-off: the merkle manifest fits one packet.
	files := []File{{Name: "big", Content: bytes.Repeat([]byte{1}, 100_000)}}
	dig, err := BuildCollection(ndn.ParseName("/c"), files, 1000, FormatPacketDigest, nil)
	if err != nil {
		t.Fatal(err)
	}
	mrk, err := BuildCollection(ndn.ParseName("/c"), files, 1000, FormatMerkle, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, ms := len(dig.Manifest.Encode()), len(mrk.Manifest.Encode())
	if ms >= ds {
		t.Fatalf("merkle manifest (%d B) not smaller than digest manifest (%d B)", ms, ds)
	}
	if ms > 1000 {
		t.Fatalf("merkle manifest does not fit one packet: %d B", ms)
	}
}

func TestSegmentAndAssembleSigned(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	producer, err := keys.Generate(ndn.ParseName("/net/producer"), rng)
	if err != nil {
		t.Fatal(err)
	}
	store := keys.NewTrustStore()
	store.AddAnchor(producer)

	res := build(t, FormatPacketDigest)
	segs, err := res.Manifest.Segment(120, producer)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	if n, err := SegmentCount(segs[0]); err != nil || n != len(segs) {
		t.Fatalf("SegmentCount = %d, %v", n, err)
	}

	// Out-of-order assembly with signature verification.
	shuffled := append([]*ndn.Data(nil), segs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	m, err := Assemble(shuffled, store.Verify)
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalPackets() != res.Manifest.TotalPackets() {
		t.Fatal("assembled manifest differs")
	}

	// Missing segment.
	if _, err := Assemble(segs[:len(segs)-1], store.Verify); err == nil {
		t.Fatal("assembled with missing segment")
	}
	// Untrusted signer.
	mallory, _ := keys.Generate(ndn.ParseName("/net/mallory"), rng)
	badSegs, _ := res.Manifest.Segment(120, mallory)
	if _, err := Assemble(badSegs, store.Verify); err == nil {
		t.Fatal("assembled untrusted metadata")
	}
	// Empty input.
	if _, err := Assemble(nil, store.Verify); err == nil {
		t.Fatal("assembled nothing")
	}
}

func TestSegmentSinglePacket(t *testing.T) {
	t.Parallel()
	res := build(t, FormatMerkle)
	segs, err := res.Manifest.Segment(2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	m, err := Assemble(segs, nil)
	if err != nil || m.Format != FormatMerkle {
		t.Fatalf("assemble: %v", err)
	}
}

// TestAssembleAllocatesPerManifest: Assemble sizes its buffer once from the
// segments, so one manifest costs the same objects whether it arrives in one
// segment or in many.
func TestAssembleAllocatesPerManifest(t *testing.T) {
	res := build(t, FormatPacketDigest)
	one, err := res.Manifest.Segment(1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := res.Manifest.Segment(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || len(many) < 8 {
		t.Fatalf("%d and %d segments, want 1 and at least 8", len(one), len(many))
	}
	allocs := func(segs []*ndn.Data) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Assemble(segs, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a1, an := allocs(one), allocs(many); a1 != an {
		t.Errorf("Assemble makes %v objects from 1 segment, %v from %d", a1, an, len(many))
	}
}

func TestSegmentErrors(t *testing.T) {
	t.Parallel()
	res := build(t, FormatMerkle)
	if _, err := res.Manifest.Segment(4, nil); err == nil {
		t.Fatal("tiny payload accepted")
	}
	if _, err := SegmentCount(&ndn.Data{Content: []byte{1}}); err == nil {
		t.Fatal("short segment accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	t.Parallel()
	if _, err := BuildCollection(ndn.ParseName("/c"), nil, 1000, FormatMerkle, nil); err != ErrNoFiles {
		t.Fatalf("no files: %v", err)
	}
	if _, err := BuildCollection(ndn.ParseName("/c"), testFiles(), 0, FormatMerkle, nil); err == nil {
		t.Fatal("zero packet size accepted")
	}
	if _, err := BuildCollection(ndn.ParseName("/c"), testFiles(), 1000, Format(9), nil); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestEmptyFileOccupiesOnePacket(t *testing.T) {
	t.Parallel()
	res, err := BuildCollection(ndn.ParseName("/c"), []File{{Name: "empty"}}, 1000, FormatPacketDigest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifest.TotalPackets() != 1 || len(res.Packets) != 1 {
		t.Fatalf("empty file packets = %d", res.Manifest.TotalPackets())
	}
	if !res.Manifest.VerifyPacket(0, res.Packets[0]) {
		t.Fatal("empty packet failed verification")
	}
}

func TestSignedPacketsCarryProducerKey(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(12))
	producer, _ := keys.Generate(ndn.ParseName("/net/p"), rng)
	store := keys.NewTrustStore()
	store.AddAnchor(producer)
	res, err := BuildCollection(ndn.ParseName("/c"), testFiles(), 1000, FormatPacketDigest, producer)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Packets {
		if !p.Verify(store.Verify) {
			t.Fatalf("packet %s not verifiable via trust store", p.Name)
		}
	}
}
