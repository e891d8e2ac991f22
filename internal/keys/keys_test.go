package keys

import (
	"bytes"
	"math/rand"
	"testing"

	"dapes/internal/ndn"
)

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	id := ndn.ParseName("/rural-net/alice")
	k1, err := Generate(id, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Generate(id, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !k1.KeyName().Equal(k2.KeyName()) {
		t.Fatalf("key names differ: %s vs %s", k1.KeyName(), k2.KeyName())
	}
	k3, err := Generate(id, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if k1.KeyName().Equal(k3.KeyName()) {
		t.Fatal("different seeds produced the same key")
	}
}

func TestIdentityAndKeyNameShape(t *testing.T) {
	t.Parallel()
	id := ndn.ParseName("/rural-net/alice")
	k, err := Generate(id, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !k.Identity().Equal(id) {
		t.Fatalf("Identity = %s, want %s", k.Identity(), id)
	}
	if k.KeyName().Len() != id.Len()+2 || k.KeyName().At(id.Len()) != "KEY" {
		t.Fatalf("KeyName = %s", k.KeyName())
	}
}

func TestSignVerifyThroughTrustStore(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	alice, _ := Generate(ndn.ParseName("/net/alice"), rng)
	mallory, _ := Generate(ndn.ParseName("/net/mallory"), rng)

	store := NewTrustStore()
	store.AddAnchor(alice)

	msg := []byte("the bridge is down")
	sig := alice.Sign(msg)

	if !store.Verify(alice.KeyName(), msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if store.Verify(alice.KeyName(), []byte("tampered"), sig) {
		t.Fatal("tampered message verified")
	}
	if store.Verify(mallory.KeyName(), msg, mallory.Sign(msg)) {
		t.Fatal("untrusted key verified")
	}
	if store.Knows(mallory.KeyName()) {
		t.Fatal("store knows untrusted key")
	}
	if store.Len() != 1 {
		t.Fatalf("Len = %d, want 1", store.Len())
	}
}

func TestAddPublic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	k, _ := Generate(ndn.ParseName("/net/bob"), rng)
	store := NewTrustStore()
	store.AddPublic(k.KeyName(), k.Public())
	msg := []byte("hello")
	if !store.Verify(k.KeyName(), msg, k.Sign(msg)) {
		t.Fatal("AddPublic key did not verify")
	}
}

func TestSignedDataVerifies(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	producer, _ := Generate(ndn.ParseName("/net/producer"), rng)
	store := NewTrustStore()
	store.AddAnchor(producer)

	d := &ndn.Data{Name: ndn.ParseName("/coll/file/0"), Content: []byte("seg")}
	d.Sign(producer)

	out, err := ndn.DecodeData(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Verify(store.Verify) {
		t.Fatal("signed data failed verification after roundtrip")
	}
	// The signature covers the bytes as received: tamper with those.
	wire := append([]byte(nil), d.Encode()...)
	wire[bytes.Index(wire, []byte("seg"))] ^= 0xFF
	if out, err = ndn.DecodeData(wire); err != nil {
		t.Fatal(err)
	}
	if out.Verify(store.Verify) {
		t.Fatal("tampered data verified")
	}
}
