package metadata

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"dapes/internal/merkle"
	"dapes/internal/ndn"
)

// BuildResult is the output of BuildCollection: the manifest plus every
// collection Data packet, indexed by global position.
type BuildResult struct {
	Manifest *Manifest
	// Packets holds the collection's Data packets in global-index order.
	Packets []*ndn.Data
}

// BuildCollection segments the given files into packetSize-byte Data packets
// under the collection name, signs each packet, and produces the manifest in
// the requested format. If signer is nil, packets carry integrity-only
// digest signatures (useful for large simulations); otherwise each packet is
// Ed25519-signed as the paper's producer does.
func BuildCollection(collection ndn.Name, files []File, packetSize int, format Format, signer ndn.Signer) (*BuildResult, error) {
	if len(files) == 0 {
		return nil, ErrNoFiles
	}
	if packetSize <= 0 {
		return nil, fmt.Errorf("metadata: invalid packet size %d", packetSize)
	}
	m := &Manifest{Collection: collection.Clone(), Format: format}
	var packets []*ndn.Data
	for _, f := range files {
		nPkts := (len(f.Content) + packetSize - 1) / packetSize
		if nPkts == 0 {
			nPkts = 1 // empty files still occupy one (empty) packet
		}
		info := FileInfo{Name: f.Name, PacketCount: nPkts}
		digests := make([]merkle.Digest, 0, nPkts)
		for seq := 0; seq < nPkts; seq++ {
			lo := seq * packetSize
			hi := lo + packetSize
			if lo > len(f.Content) {
				lo = len(f.Content)
			}
			if hi > len(f.Content) {
				hi = len(f.Content)
			}
			d := &ndn.Data{
				Name:    collection.Append(ndn.Component(f.Name)).AppendSeq(seq),
				Content: append([]byte(nil), f.Content[lo:hi]...),
			}
			if signer != nil {
				d.Sign(signer)
			} else {
				d.SignDigest()
			}
			digests = append(digests, d.Digest())
			packets = append(packets, d)
		}
		switch format {
		case FormatPacketDigest:
			info.Digests = digests
		case FormatMerkle:
			root, err := merkle.RootOf(digests)
			if err != nil {
				return nil, fmt.Errorf("metadata: merkle root for %q: %w", f.Name, err)
			}
			info.Root = root
		default:
			return nil, fmt.Errorf("metadata: unknown format %v", format)
		}
		m.Files = append(m.Files, info)
	}
	m.index()
	return &BuildResult{Manifest: m, Packets: packets}, nil
}

// segmentHeader prefixes every metadata segment: total segment count, so a
// fetcher learns how many segments to request from any one of them.
const segmentHeaderLen = 4

// Segment splits the encoded manifest into Data packets of at most
// payloadSize bytes each, named <MetadataName()>/<seq> and signed by the
// collection producer. Even a manifest that fits one packet is emitted as
// segment 0 so fetch logic is uniform.
func (m *Manifest) Segment(payloadSize int, signer ndn.Signer) ([]*ndn.Data, error) {
	if payloadSize <= segmentHeaderLen {
		return nil, fmt.Errorf("metadata: payload size %d too small", payloadSize)
	}
	enc := m.Encode()
	chunk := payloadSize - segmentHeaderLen
	nSegs := (len(enc) + chunk - 1) / chunk
	if nSegs == 0 {
		nSegs = 1
	}
	prefix := m.MetadataName()
	segs := make([]*ndn.Data, 0, nSegs)
	for i := 0; i < nSegs; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if lo > len(enc) {
			lo = len(enc)
		}
		if hi > len(enc) {
			hi = len(enc)
		}
		content := binary.BigEndian.AppendUint32(nil, uint32(nSegs))
		content = append(content, enc[lo:hi]...)
		d := &ndn.Data{Name: prefix.AppendSeq(i), Content: content}
		if signer != nil {
			d.Sign(signer)
		} else {
			d.SignDigest()
		}
		segs = append(segs, d)
	}
	return segs, nil
}

// SegmentCount extracts the total-segment header from any one metadata
// segment.
func SegmentCount(seg *ndn.Data) (int, error) {
	if len(seg.Content) < segmentHeaderLen {
		return 0, ErrBadSegment
	}
	return int(binary.BigEndian.Uint32(seg.Content)), nil
}

// Assemble reconstructs and decodes a manifest from its segments. Segments
// may arrive in any order; each is verified with verify (pass nil to skip
// signature checks, e.g. when digests were used). Missing or inconsistent
// segments return an error.
func Assemble(segments []*ndn.Data, verify func(key ndn.Name, msg, sig []byte) bool) (*Manifest, error) {
	if len(segments) == 0 {
		return nil, ErrBadSegment
	}
	total, err := SegmentCount(segments[0])
	if err != nil {
		return nil, err
	}
	if len(segments) != total {
		return nil, fmt.Errorf("%w: have %d of %d segments", ErrBadSegment, len(segments), total)
	}
	ordered := slices.Clone(segments)
	slices.SortFunc(ordered, func(a, b *ndn.Data) int {
		sa, _ := a.Name.Seq()
		sb, _ := b.Name.Seq()
		return cmp.Compare(sa, sb)
	})
	size := 0
	for _, seg := range ordered {
		size += max(0, len(seg.Content)-segmentHeaderLen)
	}
	enc := make([]byte, 0, size)
	for i, seg := range ordered {
		seq, err := seg.Name.Seq()
		if err != nil || seq != i {
			return nil, fmt.Errorf("%w: segment sequence", ErrBadSegment)
		}
		segTotal, err := SegmentCount(seg)
		if err != nil || segTotal != total {
			return nil, fmt.Errorf("%w: inconsistent totals", ErrBadSegment)
		}
		if verify != nil && !seg.Verify(verify) {
			return nil, fmt.Errorf("%w: signature check failed for %s", ErrBadSegment, seg.Name)
		}
		enc = append(enc, seg.Content[segmentHeaderLen:]...)
	}
	return DecodeManifest(enc)
}
