package bitmap

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
)

// refEncode and refDecode are the codec's definition, one Test/Set per bit:
// bit i of the bitmap is bit i%8 of payload byte i/8. Encode and Decode move
// whole words and bytes and are held to these.
func refEncode(b *Bitmap) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(b.n))
	for i := 0; i < (b.n+7)/8; i++ {
		var by byte
		for bit := 0; bit < 8; bit++ {
			if b.Test(i*8 + bit) {
				by |= 1 << uint(bit)
			}
		}
		out = append(out, by)
	}
	return out
}

func refDecode(buf []byte) (*Bitmap, bool) {
	if len(buf) < 4 {
		return nil, false
	}
	n := int(binary.BigEndian.Uint32(buf))
	if len(buf) < 4+(n+7)/8 {
		return nil, false
	}
	b := New(n)
	for i := 0; i < n; i++ {
		if buf[4+i/8]&(1<<(uint(i)%8)) != 0 {
			b.Set(i)
		}
	}
	return b, true
}

// FuzzBitmapCodec: advertisement bitmaps are decoded from bytes any node can
// put on the air. The byte-wise codec must accept exactly what the bit-wise
// reference accepts and build the same bitmap, round-trip it, and refuse a
// length header its payload cannot back before sizing anything by it.
func FuzzBitmapCodec(f *testing.F) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 200} {
		b := New(n)
		for i := 0; i < n; i += 3 {
			b.Set(i)
		}
		f.Add(b.AppendEncode(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                         // short header
	f.Add([]byte{0, 0, 0, 9, 0xFF})                // one payload byte short
	f.Add([]byte{0, 0, 0, 5, 0xFF})                // set bits past the length
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3}) // claims 512 MiB of bits

	f.Fuzz(func(t *testing.T, buf []byte) {
		var before runtime.MemStats
		claimsMuch := len(buf) >= 4 && binary.BigEndian.Uint32(buf) > 1<<23
		if claimsMuch {
			runtime.ReadMemStats(&before)
		}
		got, err := Decode(buf)
		want, ok := refDecode(buf)
		if (err == nil) != ok {
			t.Fatalf("Decode(%x) error = %v, reference accepts = %v", buf, err, ok)
		}
		if err != nil {
			if claimsMuch {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
					t.Fatalf("rejecting a %d-bit header allocated %d bytes", binary.BigEndian.Uint32(buf), grew)
				}
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode(%x) = %v, reference %v", buf, got, want)
		}
		into := New(got.Len())
		into.SetAll()
		if err := into.DecodeFrom(buf); err != nil || !reflect.DeepEqual(into, got) {
			t.Fatalf("DecodeFrom(%x) = %v (%v), Decode %v", buf, into, err, got)
		}
		if wrong := New(got.Len() + 1); wrong.DecodeFrom(buf) != ErrSizeMismatch || wrong.Count() != 0 {
			t.Fatalf("DecodeFrom(%x) into a bitmap of another length: accepted or written", buf)
		}
		if got.Count() != setBelowLen(got) {
			t.Fatalf("Decode(%x) kept %d bits past the length", buf, got.Count()-setBelowLen(got))
		}
		enc := got.AppendEncode(nil)
		if !bytes.Equal(enc, refEncode(got)) {
			t.Fatalf("Encode = %x, reference %x", enc, refEncode(got))
		}
		if back, err := Decode(enc); err != nil || !reflect.DeepEqual(back, got) {
			t.Fatalf("round trip of %x failed: %v", enc, err)
		}
	})
}
