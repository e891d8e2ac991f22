package bitmap

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSetTestClearCount(t *testing.T) {
	t.Parallel()
	b := New(130) // crosses word boundaries
	idx := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idx {
		b.Set(i)
	}
	for _, i := range idx {
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != len(idx) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(idx))
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != len(idx)-1 {
		t.Fatal("clear failed")
	}
}

func TestOutOfRangeIgnored(t *testing.T) {
	t.Parallel()
	b := New(10)
	b.Set(-1)
	b.Set(10)
	b.Clear(100)
	if b.Count() != 0 {
		t.Fatal("out-of-range Set modified bitmap")
	}
	if b.Test(-1) || b.Test(10) {
		t.Fatal("out-of-range Test returned true")
	}
}

func TestSetAllFullAndMissing(t *testing.T) {
	t.Parallel()
	b := New(70)
	if b.Full() {
		t.Fatal("empty bitmap reported Full")
	}
	b.SetAll()
	if !b.Full() || b.Count() != 70 {
		t.Fatalf("SetAll: count=%d", b.Count())
	}
	b.Clear(5)
	b.Clear(69)
	if b.Full() || b.Count() != 68 || b.Test(5) || b.Test(69) {
		t.Fatalf("after clearing 5 and 69: count=%d", b.Count())
	}
}

func TestZeroLengthBitmap(t *testing.T) {
	t.Parallel()
	b := New(0)
	b.SetAll()
	if b.Count() != 0 || !b.Full() {
		t.Fatal("zero-length bitmap misbehaves")
	}
	rt, err := Decode(b.AppendEncode(nil))
	if err != nil || rt.Len() != 0 {
		t.Fatalf("zero-length roundtrip: %v", err)
	}
	if n := New(-5); n.Len() != 0 {
		t.Fatal("negative length not clamped")
	}
}

func TestOrAndNotMissingFrom(t *testing.T) {
	t.Parallel()
	a := New(10)
	b := New(10)
	a.Set(1)
	a.Set(2)
	a.Set(3)
	b.Set(3)
	b.Set(4)

	missing, err := a.MissingFrom(b)
	if err != nil || missing != 2 { // bits 1,2 set in a, clear in b
		t.Fatalf("MissingFrom = %d, %v", missing, err)
	}

	u := a.Clone()
	if err := u.Or(b); err != nil {
		t.Fatal(err)
	}
	if u.Count() != 4 {
		t.Fatalf("Or count = %d", u.Count())
	}

	d := a.Clone()
	if err := d.AndNot(b); err != nil {
		t.Fatal(err)
	}
	if d.Count() != 2 || !d.Test(1) || !d.Test(2) {
		t.Fatalf("AndNot wrong: %v", d)
	}

	short := New(5)
	if err := a.Or(short); err != ErrSizeMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
	if _, err := a.MissingFrom(short); err != ErrSizeMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
	if err := a.AndNot(short); err != ErrSizeMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	t.Parallel()
	a := New(8)
	a.Set(1)
	c := a.Clone()
	c.Set(2)
	if a.Test(2) {
		t.Fatal("clone shares storage")
	}
	if !reflect.DeepEqual(c, c.Clone()) || reflect.DeepEqual(a, c) {
		t.Fatal("clone differs from its source")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	b := New(100)
	for _, i := range []int{0, 7, 8, 9, 50, 99} {
		b.Set(i)
	}
	rt, err := Decode(b.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt, b) {
		t.Fatalf("roundtrip mismatch: %v vs %v", rt, b)
	}
}

// TestAppendEncodeMatchesEncode: a bitmap appended into a message buffer —
// one holding a header already, and with spare capacity written by an
// earlier, longer message — is its Encode form byte for byte, and leaves the
// header alone.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		b := New(n)
		for i := 0; i < n; i += 3 {
			b.Set(i)
		}
		scratch := append(make([]byte, 0, 64), bytes.Repeat([]byte{0xAA}, 64)...)
		got := b.AppendEncode(append(scratch[:0], "hdr"...))
		if want := append([]byte("hdr"), b.AppendEncode(nil)...); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendEncode %x, want %x", n, got, want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Parallel()
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := Decode([]byte{0, 0}); err == nil {
		t.Fatal("short header decoded")
	}
	// Header claims 100 bits but payload is empty.
	if _, err := Decode([]byte{0, 0, 0, 100}); err == nil {
		t.Fatal("truncated payload decoded")
	}
}

// TestDecodeFromMatchesDecode: decoding into a bitmap a receiver already
// holds gives the bits a fresh Decode gives, whatever the destination held
// before and whatever payload bits trail the length; an encoding of another
// length, or a malformed one, is reported and leaves the destination alone.
func TestDecodeFromMatchesDecode(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		for round := 0; round < 50; round++ {
			src := New(n)
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					src.Set(i)
				}
			}
			enc := src.AppendEncode(nil)
			if n%8 != 0 {
				enc[len(enc)-1] |= 0xFF << uint(n%8) // payload bits past the length
			}
			enc = append(enc, 0xAB) // and bytes past the payload
			want, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			dst := New(n)
			dst.SetAll()
			if err := dst.DecodeFrom(enc); err != nil {
				t.Fatalf("n=%d: DecodeFrom: %v", n, err)
			}
			if !reflect.DeepEqual(dst, want) || !reflect.DeepEqual(dst, src) || dst.Count() != setBelowLen(dst) {
				t.Fatalf("n=%d: DecodeFrom = %v, Decode = %v, source %v", n, dst, want, src)
			}

			other := New(n + 1)
			other.Set(n)
			before := other.Clone()
			if err := other.DecodeFrom(enc); !errors.Is(err, ErrSizeMismatch) {
				t.Fatalf("n=%d into n+1: err = %v, want ErrSizeMismatch", n, err)
			}
			if err := dst.DecodeFrom(enc[:len(enc)-2]); n > 0 && err == nil {
				t.Fatalf("n=%d: truncated encoding decoded", n)
			}
			if !reflect.DeepEqual(other, before) || !reflect.DeepEqual(dst, want) {
				t.Fatalf("n=%d: a refused DecodeFrom changed its destination", n)
			}
		}
	}
}

func TestDecodeFromDoesNotAllocate(t *testing.T) {
	dst := New(200)
	enc := dst.AppendEncode(nil)
	if allocs := testing.AllocsPerRun(100, func() { _ = dst.DecodeFrom(enc) }); allocs != 0 {
		t.Errorf("DecodeFrom allocates %v objects", allocs)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	t.Parallel()
	f := func(setBits []uint16, size uint16) bool {
		n := int(size%2000) + 1
		b := New(n)
		for _, s := range setBits {
			b.Set(int(s) % n)
		}
		rt, err := Decode(b.AppendEncode(nil))
		return err == nil && reflect.DeepEqual(rt, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMissingFromIdentityProperty(t *testing.T) {
	t.Parallel()
	// a.MissingFrom(a) == 0 and a.MissingFrom(zero) == a.Count().
	f := func(setBits []uint16) bool {
		b := New(512)
		for _, s := range setBits {
			b.Set(int(s) % 512)
		}
		self, err1 := b.MissingFrom(b)
		zero, err2 := b.MissingFrom(New(512))
		return err1 == nil && err2 == nil && self == 0 && zero == b.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRarity(t *testing.T) {
	t.Parallel()
	r := NewRarity(4)
	// Three peers: packet 0 held by all, packet 3 held by none.
	mk := func(bits ...int) *Bitmap {
		b := New(4)
		for _, i := range bits {
			b.Set(i)
		}
		return b
	}
	check := func(want ...int) {
		t.Helper()
		for i, w := range want {
			if r.Of(i) != w {
				t.Fatalf("Of(%d) = %d, want %d", i, r.Of(i), w)
			}
		}
	}
	for id, b := range []*Bitmap{mk(0, 1), mk(0, 2), mk(0, 1, 2)} {
		if err := r.Put(id, b); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	check(0, 1, 1, 3)
	if r.Of(-1) != 0 || r.Of(4) != 0 {
		t.Fatal("out-of-range rarity nonzero")
	}
	if err := r.Put(0, New(5)); err != ErrSizeMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
	check(0, 1, 1, 3) // the rejected bitmap left member 0 as it was

	// Replacing a member moves only the bits that changed: member 0 loses
	// packet 0 and gains packet 3.
	in := mk(1, 3)
	if err := r.Put(0, in); err != nil {
		t.Fatal(err)
	}
	in.Set(2) // the counter kept its own copy
	if r.Len() != 3 {
		t.Fatalf("Len after replace = %d", r.Len())
	}
	check(1, 1, 1, 2)
	r.Remove(1)
	r.Remove(99) // unknown member: no-op
	if r.Len() != 2 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
	check(1, 0, 1, 1)

	// A new member takes the removed member's copy, reset to full, and
	// counts only what it misses itself.
	if len(r.spare) != 1 {
		t.Fatalf("%d spare copies after one removal, want 1", len(r.spare))
	}
	if err := r.Put(5, mk(3)); err != nil {
		t.Fatal(err)
	}
	if len(r.spare) != 0 || r.Len() != 3 {
		t.Fatalf("after a new member: %d spare copies, Len %d; want 0, 3", len(r.spare), r.Len())
	}
	check(2, 1, 2, 1)
}

// setBelowLen counts the bits of b set below its length, one Test at a time:
// Count must equal it, or bits past the length survived.
func setBelowLen(b *Bitmap) int {
	n := 0
	for i := 0; i < b.Len(); i++ {
		if b.Test(i) {
			n++
		}
	}
	return n
}
