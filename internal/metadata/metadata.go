// Package metadata implements the cryptographically signed collection
// metadata of Section IV-C, in both encodings the paper describes:
//
//   - FormatPacketDigest: the metadata lists every packet's digest, so each
//     packet is verifiable the moment it arrives, at the cost of a metadata
//     file that may span many network-layer packets.
//   - FormatMerkle: the metadata carries one Merkle root per file, fitting in
//     a single packet, but a file's packets are verifiable only once the
//     whole file has been retrieved.
//
// The package also segments files and manifests into named, signed NDN Data
// packets following the Section IV-A namespace:
//
//	/<collection>/<file>/<seq>          — collection packets
//	/<collection>/metadata-file/<v>/<seq> — metadata packets
package metadata

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"dapes/internal/merkle"
	"dapes/internal/ndn"
)

// Format selects the metadata encoding.
type Format int

// Metadata encodings from Section IV-C.
const (
	FormatPacketDigest Format = iota + 1
	FormatMerkle
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatPacketDigest:
		return "packet-digest"
	case FormatMerkle:
		return "merkle"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Errors returned by the package.
var (
	ErrNoFiles     = errors.New("metadata: collection has no files")
	ErrBadManifest = errors.New("metadata: malformed manifest")
	ErrOutOfRange  = errors.New("metadata: packet index out of range")
	ErrBadSegment  = errors.New("metadata: bad metadata segment")
)

// File is one input file of a collection.
type File struct {
	Name    string
	Content []byte
}

// FileInfo describes one file inside a manifest.
type FileInfo struct {
	Name        string
	PacketCount int
	// Digests holds the per-packet digests (FormatPacketDigest only).
	Digests []merkle.Digest
	// Root holds the file's Merkle root (FormatMerkle only).
	Root merkle.Digest
}

// Manifest is the decoded collection metadata.
type Manifest struct {
	Collection ndn.Name
	Format     Format
	Files      []FileInfo

	// The index over Files, built once by index() when BuildCollection or
	// DecodeManifest finishes the manifest (Files is not edited afterwards).
	total    int            // sum of packet counts
	offsets  []int          // prefix sums of packet counts
	byName   map[string]int // file name -> position of the first file so named
	prefixes []ndn.Name     // Collection/<file name>, what every packet name of the file starts with
}

// index derives the lookup tables from Files.
func (m *Manifest) index() {
	m.total, m.offsets, m.byName = 0, make([]int, len(m.Files)), make(map[string]int, len(m.Files))
	m.prefixes = make([]ndn.Name, len(m.Files))
	for i, f := range m.Files {
		m.prefixes[i] = m.Collection.Append(ndn.Component(f.Name))
		m.offsets[i] = m.total
		m.total += f.PacketCount
		if _, dup := m.byName[f.Name]; !dup {
			m.byName[f.Name] = i
		}
	}
}

// TotalPackets returns the number of packets across all files, i.e. the
// bitmap length for this collection.
func (m *Manifest) TotalPackets() int { return m.total }

// GlobalIndex maps (file index, packet index) to the global bitmap position:
// packets are ordered by file position in the manifest, then by sequence
// (Section IV-D).
func (m *Manifest) GlobalIndex(file, pkt int) int { return m.offsets[file] + pkt }

// Locate maps a global bitmap position back to (file index, packet index).
func (m *Manifest) Locate(global int) (file, pkt int, err error) {
	if global < 0 || global >= m.total {
		return 0, 0, ErrOutOfRange
	}
	// The last file starting at or before global: the one before the first
	// offset past it.
	file = sort.SearchInts(m.offsets, global+1) - 1
	return file, global - m.offsets[file], nil
}

// AppendPacketName appends the NDN name of the packet at a global position to
// dst and returns the extended name: with a scratch dst, a sender names a
// packet without allocating.
func (m *Manifest) AppendPacketName(dst ndn.Name, global int) (ndn.Name, error) {
	file, pkt, err := m.Locate(global)
	if err != nil {
		return dst, err
	}
	return append(append(dst, m.prefixes[file]...), ndn.Component(strconv.Itoa(pkt))), nil
}

// GlobalIndexOfName maps a packet name back to its global position, or -1 if
// the name does not belong to the collection.
func (m *Manifest) GlobalIndexOfName(name ndn.Name) int {
	if !m.Collection.IsPrefixOf(name) || name.Len() != m.Collection.Len()+2 {
		return -1
	}
	file, ok := m.byName[string(name.At(m.Collection.Len()))]
	seq, err := name.Seq()
	if !ok || err != nil || seq < 0 || seq >= m.Files[file].PacketCount {
		return -1
	}
	return m.GlobalIndex(file, seq)
}

// VerifyPacket checks a received packet against the manifest. With
// FormatPacketDigest this succeeds or fails immediately; with FormatMerkle it
// returns false — per the paper, whole-file verification (VerifyFile) is
// required.
func (m *Manifest) VerifyPacket(global int, d *ndn.Data) bool {
	if m.Format != FormatPacketDigest {
		return false
	}
	file, pkt, err := m.Locate(global)
	if err != nil {
		return false
	}
	return m.Files[file].Digests[pkt] == d.Digest()
}

// VerifyFile checks a complete file's packets against the manifest's Merkle
// root (FormatMerkle) or per-packet digests (FormatPacketDigest). packets
// must be ordered by sequence number and complete.
func (m *Manifest) VerifyFile(file int, packets []*ndn.Data) bool {
	if file < 0 || file >= len(m.Files) {
		return false
	}
	info := m.Files[file]
	if len(packets) != info.PacketCount {
		return false
	}
	switch m.Format {
	case FormatPacketDigest:
		for i, p := range packets {
			if info.Digests[i] != p.Digest() {
				return false
			}
		}
		return true
	case FormatMerkle:
		leafDigests := make([]merkle.Digest, len(packets))
		for i, p := range packets {
			leafDigests[i] = p.Digest()
		}
		root, err := merkle.RootOf(leafDigests)
		return err == nil && root == info.Root
	default:
		return false
	}
}

// MetadataName returns the name prefix under which this manifest's segments
// are published, e.g. "/damaged-bridge-1533783192/metadata-file/1a2b3c4d".
// The version component is a digest of the manifest encoding, as in the
// paper's Fig. 4 example.
func (m *Manifest) MetadataName() ndn.Name {
	sum := merkle.HashLeaf(m.Encode())
	return m.Collection.Append("metadata-file", ndn.Component(fmt.Sprintf("%x", sum[:4])))
}

const manifestMagic = "DMF1"

// Encode serializes the manifest to its binary form.
func (m *Manifest) Encode() []byte {
	var b []byte
	b = append(b, manifestMagic...)
	b = append(b, byte(m.Format))
	uri := m.Collection.String()
	b = binary.BigEndian.AppendUint16(b, uint16(len(uri)))
	b = append(b, uri...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Files)))
	for _, f := range m.Files {
		b = binary.BigEndian.AppendUint16(b, uint16(len(f.Name)))
		b = append(b, f.Name...)
		b = binary.BigEndian.AppendUint32(b, uint32(f.PacketCount))
		if m.Format == FormatPacketDigest {
			for _, d := range f.Digests {
				b = append(b, d[:]...)
			}
		} else {
			b = append(b, f.Root[:]...)
		}
	}
	return b
}

// DecodeManifest parses a manifest produced by Encode.
func DecodeManifest(buf []byte) (*Manifest, error) {
	r := reader{buf: buf}
	magic, err := r.bytes(4)
	if err != nil || string(magic) != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	fb, err := r.bytes(1)
	if err != nil {
		return nil, fmt.Errorf("%w: format", ErrBadManifest)
	}
	m := &Manifest{Format: Format(fb[0])}
	if m.Format != FormatPacketDigest && m.Format != FormatMerkle {
		return nil, fmt.Errorf("%w: unknown format %d", ErrBadManifest, fb[0])
	}
	uriLen, err := r.u16()
	if err != nil {
		return nil, fmt.Errorf("%w: name length", ErrBadManifest)
	}
	uri, err := r.bytes(int(uriLen))
	if err != nil {
		return nil, fmt.Errorf("%w: name", ErrBadManifest)
	}
	m.Collection = ndn.ParseName(string(uri))
	nfiles, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: file count", ErrBadManifest)
	}
	for i := uint32(0); i < nfiles; i++ {
		nameLen, err := r.u16()
		if err != nil {
			return nil, fmt.Errorf("%w: file name length", ErrBadManifest)
		}
		name, err := r.bytes(int(nameLen))
		if err != nil {
			return nil, fmt.Errorf("%w: file name", ErrBadManifest)
		}
		count, err := r.u32()
		if err != nil {
			return nil, fmt.Errorf("%w: packet count", ErrBadManifest)
		}
		info := FileInfo{Name: string(name), PacketCount: int(count)}
		if m.Format == FormatPacketDigest {
			info.Digests = make([]merkle.Digest, count)
			for p := range info.Digests {
				d, err := r.bytes(32)
				if err != nil {
					return nil, fmt.Errorf("%w: digest", ErrBadManifest)
				}
				copy(info.Digests[p][:], d)
			}
		} else {
			d, err := r.bytes(32)
			if err != nil {
				return nil, fmt.Errorf("%w: root", ErrBadManifest)
			}
			copy(info.Root[:], d)
		}
		m.Files = append(m.Files, info)
	}
	m.index()
	return m, nil
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) bytes(n int) ([]byte, error) {
	if r.pos+n > len(r.buf) {
		return nil, ErrBadManifest
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.bytes(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}
