// Package bitmap implements the compact data-advertisement encoding of
// Section IV-D: one bit per packet of a file collection, 1 when the peer
// holds the packet. Bitmaps travel inside bitmap Interests and bitmap Data
// packets and feed the rarity computations of the RPF strategies.
package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrSizeMismatch is returned by binary operations on bitmaps of different
// lengths.
var ErrSizeMismatch = errors.New("bitmap: size mismatch")

// Bitmap is a fixed-size bitset over packet indices [0, Len).
type Bitmap struct {
	n     int
	words []uint64
}

// New returns an all-zero bitmap over n bits.
func New(n int) *Bitmap {
	if n < 0 {
		n = 0
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set marks bit i. Out-of-range indices are ignored.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear unmarks bit i. Out-of-range indices are ignored.
func (b *Bitmap) Clear(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Test reports whether bit i is set. Out-of-range indices are false.
func (b *Bitmap) Test(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Full reports whether every bit is set.
func (b *Bitmap) Full() bool { return b.Count() == b.n }

// SetAll marks every bit.
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// trim zeroes the unused high bits of the last word.
func (b *Bitmap) trim() {
	if rem := b.n % 64; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
	if b.n == 0 && len(b.words) > 0 {
		b.words[0] = 0
	}
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := New(b.n)
	copy(out.words, b.words)
	return out
}

// Or sets b to b ∪ other.
func (b *Bitmap) Or(other *Bitmap) error {
	if b.n != other.n {
		return ErrSizeMismatch
	}
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
	return nil
}

// AndNot sets b to b \ other (bits set in b but not in other).
func (b *Bitmap) AndNot(other *Bitmap) error {
	if b.n != other.n {
		return ErrSizeMismatch
	}
	for i := range b.words {
		b.words[i] &^= other.words[i]
	}
	return nil
}

// MissingFrom returns the number of bits set in b that are clear in other:
// packets b holds that other is missing. This drives the advertisement
// prioritization of Section IV-F.
func (b *Bitmap) MissingFrom(other *Bitmap) (int, error) {
	if b.n != other.n {
		return 0, ErrSizeMismatch
	}
	total := 0
	for i, w := range b.words {
		total += bits.OnesCount64(w &^ other.words[i])
	}
	return total, nil
}

// Word returns the w-th 64-bit word of the bitmap (bit i of the bitmap is bit
// i%64 of word i/64), or 0 when b is nil or w is past its end: set scans
// combine bitmaps a word at a time, and an absent bitmap reads as empty.
func (b *Bitmap) Word(w int) uint64 {
	if b == nil || w >= len(b.words) {
		return 0
	}
	return b.words[w]
}

// AppendEncode appends the Encode form of the bitmap to dst and returns the
// extended slice, so a message that carries a bitmap is built in one buffer.
func (b *Bitmap) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(b.n))
	end := len(dst) + (b.n+7)/8
	for _, w := range b.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst[:end]
}

// EncodedLen validates the header of a bitmap produced by Encode — the bit
// length, backed by enough payload bytes — and returns the bit length and
// the size of the encoding, so a caller can cut buf[:size] out of a larger
// message and decode it later.
func EncodedLen(buf []byte) (n, size int, err error) {
	if len(buf) < 4 {
		return 0, 0, fmt.Errorf("bitmap: short header (%d bytes)", len(buf))
	}
	n = int(binary.BigEndian.Uint32(buf))
	nbytes := (n + 7) / 8
	if len(buf) < 4+nbytes {
		return 0, 0, fmt.Errorf("bitmap: need %d payload bytes, have %d", nbytes, len(buf)-4)
	}
	return n, 4 + nbytes, nil
}

// Decode parses a bitmap produced by Encode. Payload bits past the bit
// length are ignored.
func Decode(buf []byte) (*Bitmap, error) {
	n, _, err := EncodedLen(buf)
	if err != nil {
		return nil, err
	}
	b := New(n)
	return b, b.DecodeFrom(buf)
}

// DecodeFrom overwrites b with the bitmap encoded in buf, which must have
// b's length: a receiver that already holds a peer's bitmap takes the peer's
// next advertisement into it without allocating. On any error — a malformed
// encoding, or ErrSizeMismatch — b is left untouched.
func (b *Bitmap) DecodeFrom(buf []byte) error {
	n, size, err := EncodedLen(buf)
	if err != nil {
		return err
	}
	if n != b.n {
		return ErrSizeMismatch
	}
	payload := buf[4:size]
	for w := range b.words {
		if len(payload) >= 8 {
			b.words[w] = binary.LittleEndian.Uint64(payload)
			payload = payload[8:]
			continue
		}
		var word uint64
		for i, by := range payload {
			word |= uint64(by) << (8 * uint(i))
		}
		b.words[w] = word
	}
	b.trim()
	return nil
}

// Rarity counts, for every packet, how many of a set of member bitmaps are
// missing it; higher counts mean rarer packets (Section IV-E). Members are
// keyed by peer and kept as private copies, so a re-advertised bitmap costs
// only the bits that changed.
type Rarity struct {
	n       int
	missby  []int // missby[i] = number of member bitmaps with bit i clear
	members map[int]*Bitmap
	full    *Bitmap // all ones: a member missing nothing counts nowhere
}

// NewRarity returns a rarity counter over n packets.
func NewRarity(n int) *Rarity {
	full := New(n)
	full.SetAll()
	return &Rarity{n: full.n, missby: make([]int, full.n), members: make(map[int]*Bitmap), full: full}
}

// Put adds id's bitmap to the member set, or replaces the one it held.
func (r *Rarity) Put(id int, b *Bitmap) error {
	if b.Len() != r.n {
		return ErrSizeMismatch
	}
	m, ok := r.members[id]
	if !ok {
		m = r.full.Clone()
		r.members[id] = m
	}
	r.move(m, b)
	return nil
}

// Remove drops id's bitmap from the member set; unknown ids are ignored.
func (r *Rarity) Remove(id int) {
	if m, ok := r.members[id]; ok {
		r.move(m, r.full)
		delete(r.members, id)
	}
}

// move rewrites member copy m to the bits of to, adjusting the count of
// every bit that differs (the XOR of the two), word by word.
func (r *Rarity) move(m, to *Bitmap) {
	for w, word := range to.words {
		for diff := m.words[w] ^ word; diff != 0; diff &= diff - 1 {
			i := w*64 + bits.TrailingZeros64(diff)
			if word&(diff&-diff) != 0 {
				r.missby[i]--
			} else {
				r.missby[i]++
			}
		}
		m.words[w] = word
	}
}

// Len returns the number of member bitmaps.
func (r *Rarity) Len() int { return len(r.members) }

// Of returns the rarity of packet i: the count of member bitmaps missing
// it. Out-of-range indices return 0.
func (r *Rarity) Of(i int) int {
	if i < 0 || i >= r.n {
		return 0
	}
	return r.missby[i]
}
