// Package merkle implements the Merkle tree used by the paper's second
// metadata format (Section IV-C): the collection producer publishes one root
// hash per file; receivers verify a file's packets by rebuilding the tree.
package merkle

import (
	"crypto/sha256"
	"errors"
)

// Digest is a SHA-256 hash.
type Digest = [32]byte

// ErrEmpty is returned when building a tree over zero leaves.
var ErrEmpty = errors.New("merkle: no leaves")

// Tree is a binary Merkle tree over a sequence of leaf digests. Interior
// levels duplicate an odd trailing node (Bitcoin-style padding), which keeps
// proofs simple for arbitrary leaf counts.
type Tree struct {
	levels [][]Digest // levels[0] = leaves, last level = root
}

// hashPair combines two child digests into a parent digest with a domain
// separator so interior hashes cannot be confused with leaf hashes.
func hashPair(l, r Digest) Digest {
	var buf [65]byte
	buf[0] = 0x01
	copy(buf[1:33], l[:])
	copy(buf[33:65], r[:])
	return sha256.Sum256(buf[:])
}

// HashLeaf hashes raw leaf content into a leaf digest with a 0x00 domain
// separator.
func HashLeaf(content []byte) Digest {
	b := make([]byte, 1+len(content))
	b[0] = 0x00
	copy(b[1:], content)
	return sha256.Sum256(b)
}

// Build constructs a tree over the given leaf digests.
func Build(leaves []Digest) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, ErrEmpty
	}
	level := make([]Digest, len(leaves))
	copy(level, leaves)
	t := &Tree{levels: [][]Digest{level}}
	for len(level) > 1 {
		next := make([]Digest, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashPair(level[i], level[i+1]))
			} else {
				next = append(next, hashPair(level[i], level[i]))
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Root returns the tree's root digest.
func (t *Tree) Root() Digest {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// RootOf is a convenience that builds a tree over content digests and
// returns its root.
func RootOf(leaves []Digest) (Digest, error) {
	t, err := Build(leaves)
	if err != nil {
		return Digest{}, err
	}
	return t.Root(), nil
}
