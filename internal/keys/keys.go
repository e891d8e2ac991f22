// Package keys provides identity key pairs and the "local trust anchor"
// model the paper assumes (Section III): peers in an off-the-grid deployment
// share a set of pre-established trust anchors and accept data signed by keys
// those anchors vouch for.
package keys

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"

	"dapes/internal/ndn"
)

// Key is an Ed25519 identity key pair bound to an NDN key name such as
// "/rural-net/alice/KEY/1".
type Key struct {
	name ndn.Name
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// Generate creates a key pair for the given identity name using rng as the
// entropy source, so experiments remain deterministic. The key name is the
// identity with "/KEY/<id>" appended, where id derives from the public key.
func Generate(identity ndn.Name, rng *rand.Rand) (*Key, error) {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		return nil, fmt.Errorf("keys: unexpected public key type for %s", identity)
	}
	id := sha256.Sum256(pub)
	name := identity.Append("KEY", ndn.Component(fmt.Sprintf("%x", id[:4])))
	return &Key{name: name, priv: priv, pub: pub}, nil
}

// KeyName returns the NDN name of the key (used as the KeyLocator).
func (k *Key) KeyName() ndn.Name { return k.name }

// Public returns the public key bytes.
func (k *Key) Public() ed25519.PublicKey { return k.pub }

// Sign signs msg; implements ndn.Signer.
func (k *Key) Sign(msg []byte) []byte {
	return ed25519.Sign(k.priv, msg)
}

var _ ndn.Signer = (*Key)(nil)

// TrustStore holds the public keys a peer trusts. In DAPES deployments the
// store is seeded with the community's common local trust anchors.
type TrustStore struct {
	mu   sync.RWMutex
	keys map[string]ed25519.PublicKey
}

// NewTrustStore returns an empty trust store.
func NewTrustStore() *TrustStore {
	return &TrustStore{keys: make(map[string]ed25519.PublicKey)}
}

// AddAnchor trusts the given key.
func (t *TrustStore) AddAnchor(k *Key) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.keys[k.KeyName().String()] = k.Public()
}

// Verify checks sig over msg against the trusted key named key. Unknown keys
// verify as false. The signature matches ndn.Data.Verify's callback.
func (t *TrustStore) Verify(key ndn.Name, msg, sig []byte) bool {
	t.mu.RLock()
	pub, ok := t.keys[key.String()]
	t.mu.RUnlock()
	if !ok {
		return false
	}
	return ed25519.Verify(pub, msg, sig)
}
