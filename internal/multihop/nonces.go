package multihop

import "time"

// nonceTable is a Relay's heard nonces, each for dupWindow after it was last
// noted: a ring of note times in note order, indexed by nonce. The key is
// the hash itself: nonceHash is a bijection, so two nonces of one hash are
// one nonce. A ring slot is 24 bytes.
type nonceTable struct {
	ring[time.Duration]
}

// nonceHash is a multiplicative hash, so that neighbouring nonces spread
// over the index; an odd multiplier makes it a bijection.
func nonceHash(nonce uint32) uint32 { return nonce * 0x9e3779b9 }

// heard reports whether nonce was noted less than dupWindow before now.
func (t *nonceTable) heard(nonce uint32, now time.Duration) bool {
	_, s := t.find(nonceHash(nonce), nil)
	return s != nil && now-s.e < dupWindow
}

// note records nonce as heard now, first expiring every entry a dupWindow
// old or older, and reports whether it is new: not noted less than
// dupWindow before now. Unless always, a nonce that is not new stays as it
// was.
func (t *nonceTable) note(nonce uint32, now time.Duration, always bool) (fresh bool) {
	for t.count > 0 && now-*t.at(0) >= dupWindow {
		t.pop()
	}
	h := nonceHash(nonce)
	c, s := t.find(h, nil)
	if s != nil && !always {
		return false
	}
	if t.reserve(nil) {
		c, _ = t.find(h, nil)
	}
	t.push(c, h, now)
	return s == nil
}

// live returns how many nonces were noted less than dupWindow before now.
func (t *nonceTable) live(now time.Duration) int {
	n := 0
	t.latest(func(at *time.Duration) {
		if now-*at < dupWindow {
			n++
		}
	})
	return n
}
