package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A CPU profile from runtime/pprof is a gzip'd profile.proto message. The
// decoder below reads the four tables folding needs — samples, locations,
// functions, strings — and skips every other field; it runs no go tool.

// stackSample is one profile sample: function names from the leaf outward
// and the sample's last value (CPU nanoseconds in a CPU profile).
type stackSample struct {
	stack []string
	value int64
}

// protoReader walks the fields of one protobuf message.
type protoReader struct {
	buf []byte
	err error
}

func (p *protoReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.buf) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		b := p.buf[0]
		p.buf = p.buf[1:]
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
	p.err = errors.New("varint longer than 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value or
// its length-delimited payload. ok is false at the end or on an error.
func (p *protoReader) next() (field int, v uint64, payload []byte, ok bool) {
	if p.err != nil || len(p.buf) == 0 {
		return 0, 0, nil, false
	}
	key := p.varint()
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v = p.varint()
	case 1:
		p.skip(8)
	case 2:
		n := p.varint()
		if p.err == nil && n > uint64(len(p.buf)) {
			p.err = io.ErrUnexpectedEOF
		}
		if p.err == nil {
			payload, p.buf = p.buf[:n], p.buf[n:]
		}
	case 5:
		p.skip(4)
	default:
		p.err = fmt.Errorf("wire type %d", key&7)
	}
	return field, v, payload, p.err == nil
}

func (p *protoReader) skip(n int) {
	if n > len(p.buf) {
		p.err = io.ErrUnexpectedEOF
		return
	}
	p.buf = p.buf[n:]
}

// eachField calls visit for every field of the message in buf, with the
// field's varint value or its length-delimited payload.
func eachField(buf []byte, visit func(field int, v uint64, payload []byte) error) error {
	p := protoReader{buf: buf}
	for {
		field, v, payload, ok := p.next()
		if !ok {
			return p.err
		}
		if err := visit(field, v, payload); err != nil {
			return err
		}
	}
}

// repeatedVarints appends a repeated integer field's values: one value when
// it came unpacked, the payload's varints when packed.
func repeatedVarints(dst []uint64, v uint64, payload []byte) ([]uint64, error) {
	if payload == nil {
		return append(dst, v), nil
	}
	p := protoReader{buf: payload}
	for len(p.buf) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

// decodeProfile parses a gzip'd profile.proto into its samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost inlined call first
		functions = map[uint64]uint64{}   // function id -> name's index in the string table
		table     []string
	)
	err = eachField(raw, func(field int, _ uint64, payload []byte) error {
		switch field {
		case 2: // Sample
			samples = append(samples, rawSample{})
			last := &samples[len(samples)-1]
			return eachField(payload, func(f int, v uint64, pl []byte) (err error) {
				switch f {
				case 1:
					last.locs, err = repeatedVarints(last.locs, v, pl)
				case 2:
					last.values, err = repeatedVarints(last.values, v, pl)
				}
				return err
			})
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(payload, func(f int, v uint64, pl []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(pl, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(payload, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			functions[id] = name
			return err
		case 6: // string_table
			table = append(table, string(payload))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ss := stackSample{value: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				idx := functions[fn]
				if idx >= uint64(len(table)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(table))
				}
				ss.stack = append(ss.stack, table[idx])
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

const (
	internalPrefix  = "dapes/internal/"
	layerOther      = "other"
	layerBackground = "runtime.background"
)

// tracedLayers are the layers a traced run reports a share for: the
// internal/ packages on a trial's path, then the two catch-alls.
var tracedLayers = []string{
	"sim", "phy", "geo", "ndn", "nfd", "core", "multihop", "bitmap", "rpf", "peba",
	"metadata", "transport", "routing", "bithoc", "experiment", layerOther, layerBackground,
}

// layerOf attributes a stack to the package of its frame nearest the leaf
// that lies in dapes/internal — so the allocator under ndn.Name.String is
// ndn's. A package outside tracedLayers counts as other; a stack with no
// such frame (collector, scheduler, the harness itself) as background.
func layerOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, internalPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		if slices.Contains(tracedLayers, rest) {
			return rest
		}
		return layerOther
	}
	return layerBackground
}

// folded is a profile summed by layer.
type folded struct {
	CPU   map[string]int64 `json:"cpu_ns"`
	Alloc map[string]int64 `json:"alloc_cpu_ns"` // the part of cpu_ns spent under runtime.mallocgc
}

func fold(samples []stackSample) folded {
	f := folded{CPU: map[string]int64{}, Alloc: map[string]int64{}}
	for _, s := range samples {
		layer := layerOf(s.stack)
		f.CPU[layer] += s.value
		if slices.Contains(s.stack, "runtime.mallocgc") {
			f.Alloc[layer] += s.value
		}
	}
	return f
}

// shares writes <layer><suffix> for every traced layer: its part of the
// summed values, 0 for every layer when nothing was sampled.
func shares(out map[string]float64, byLayer map[string]int64, suffix string) {
	total := int64(0)
	for _, v := range byLayer {
		total += v
	}
	for _, l := range tracedLayers {
		share := 0.0
		if total > 0 {
			share = float64(byLayer[l]) / float64(total)
		}
		out[l+suffix] = share
	}
}
