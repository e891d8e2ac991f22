package merkle

import (
	"crypto/sha256"
	"strconv"
	"testing"
	"testing/quick"
)

func leaves(n int) []Digest {
	out := make([]Digest, n)
	for i := range out {
		out[i] = HashLeaf([]byte("leaf-" + strconv.Itoa(i)))
	}
	return out
}

func TestBuildEmpty(t *testing.T) {
	t.Parallel()
	if _, err := Build(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestSingleLeafRootIsLeaf(t *testing.T) {
	t.Parallel()
	l := leaves(1)
	tr, err := Build(l)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root() != l[0] {
		t.Fatal("single-leaf root should equal the leaf")
	}
}

func TestTamperedLeafFails(t *testing.T) {
	t.Parallel()
	l := leaves(8)
	root, _ := RootOf(l)
	l[3] = HashLeaf([]byte("evil"))
	if tampered, _ := RootOf(l); tampered == root {
		t.Fatal("a tampered leaf left the root unchanged")
	}
}

func TestRootDependsOnOrder(t *testing.T) {
	t.Parallel()
	l := leaves(4)
	r1, err := RootOf(l)
	if err != nil {
		t.Fatal(err)
	}
	swapped := []Digest{l[1], l[0], l[2], l[3]}
	r2, _ := RootOf(swapped)
	if r1 == r2 {
		t.Fatal("root insensitive to leaf order")
	}
}

func TestLeafDomainSeparation(t *testing.T) {
	t.Parallel()
	// An interior hash must never equal a leaf hash of the concatenation.
	a, b := HashLeaf([]byte("a")), HashLeaf([]byte("b"))
	interior := hashPair(a, b)
	concat := append(append([]byte{}, a[:]...), b[:]...)
	if interior == HashLeaf(concat) || interior == sha256.Sum256(concat) {
		t.Fatal("second-preimage domain separation missing")
	}
}

// TestVerifyProperty: a receiver verifies a file by rebuilding the root over
// the leaves it holds (metadata.Manifest.VerifyFile). The rebuilt root is the
// published one for the leaves as sent, and any one leaf altered changes it.
func TestVerifyProperty(t *testing.T) {
	t.Parallel()
	f := func(contents [][]byte, pick uint8) bool {
		if len(contents) == 0 {
			return true
		}
		ls := make([]Digest, len(contents))
		for i, c := range contents {
			ls[i] = HashLeaf(c)
		}
		tr, err := Build(ls)
		if err != nil {
			return false
		}
		if root, _ := RootOf(ls); root != tr.Root() {
			return false
		}
		i := int(pick) % len(ls)
		ls[i] = HashLeaf(append(contents[i], 0))
		tampered, _ := RootOf(ls)
		return tampered != tr.Root()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
