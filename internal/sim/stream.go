package sim

import (
	"math/bits"
	"time"
)

// Stream is the one random source of the simulation: a SplitMix64 generator,
// eight bytes of state, held by value wherever a sequence is needed and used
// through a pointer. A stream is derived, in O(1), from the trial seed, the
// global identity of the node that draws from it and the purpose it serves
// (NewStream, Kernel.Stream), so a node's draws depend on nothing but those
// three — not on which kernel hosts the node, how many other nodes exist, or
// what any of them drew. The zero Stream is a valid generator (the stream of
// state 0), which nothing should rely on: derive one.
//
// Changing the generator, the derivation or a draw method moves every trace
// in the repository: it is a declared rebaseline (docs/CONTRACTS.md), and
// TestStreamPinnedOutputs fails first.
//
// All streams walk the same 2^64 cycle from different offsets. Two of the
// ~10^5 streams of the largest trial overlapping within the ~10^4 draws each
// makes has probability ~10^-5, and an overlap would correlate two nodes'
// draws made at unrelated times, nothing more; that is the price of eight
// bytes of state and a derivation of three mixer calls.
type Stream struct {
	state uint64
}

// Purpose separates the streams one node draws from, so that, say, how often
// a node's channel steps cannot shift where the node walks.
type Purpose uint64

const (
	// PurposeMobility places a walker and draws its legs.
	PurposeMobility Purpose = iota + 1
	// PurposeChannel steps a receiver's Gilbert-Elliott chain.
	PurposeChannel
	// PurposeReception is a receiver's per-reception loss coin.
	PurposeReception
	// PurposeRelay is a node's multihop.Relay: send jitter, nonces, and a
	// pure forwarder's coin.
	PurposeRelay
	// PurposePeer is the application on a node — a core, bithoc or ekta
	// peer — with what it hands its stream to (PEBA slots, RPF tie orders).
	PurposePeer
	// PurposeRouting is a node's DSDV or DSR instance.
	PurposeRouting
	// PurposeTransport is a node's reliable transport.
	PurposeTransport
	// PurposeFault compiles a trial's crash schedule (node 0).
	PurposeFault
	// PurposeContent fills a trial's collection with bytes (node 0).
	PurposeContent
)

// golden is SplitMix64's increment, 2^64 / phi.
const golden = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output function (Stafford's variant 13): a bijection
// of uint64 in which every input bit reaches every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewStream derives the stream of (seed, node, purpose). Each argument goes
// through the mixer before the next is added, so neighbouring triples —
// (seed, node+1) against (seed+k, node), or (node, purpose+1) against
// (node+1, purpose) — are unrelated streams, not shifted copies.
func NewStream(seed int64, node int, purpose Purpose) Stream {
	h := mix64(uint64(seed) + golden)
	h = mix64(h + uint64(node))
	return Stream{state: mix64(h + uint64(purpose))}
}

// Uint64 returns the next 64 random bits. With Int63 and Seed it makes
// *Stream a math/rand.Source64, for the rare caller that needs a *rand.Rand
// method a Stream lacks (rand.New(&s).Read).
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Int63 returns a non-negative random int64.
func (s *Stream) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed re-derives the stream as NewStream(seed, 0, 0); it exists for
// math/rand.Source.
func (s *Stream) Seed(seed int64) { *s = NewStream(seed, 0, 0) }

// Int63n returns a uniform int64 in [0, n), without modulo bias (Lemire's
// multiply-and-reject). It panics if n <= 0.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with n <= 0")
	}
	bound := uint64(n)
	hi, lo := bits.Mul64(s.Uint64(), bound)
	if lo < bound {
		reject := -bound % bound // 2^64 mod bound
		for lo < reject {
			hi, lo = bits.Mul64(s.Uint64(), bound)
		}
	}
	return int64(hi)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return int(s.Int63n(int64(n))) }

// Float64 returns a uniform float64 in [0, 1): 53 random bits.
func (s *Stream) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

// Perm returns a uniform random permutation of [0, n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Jitter returns a uniform duration in [0, max), and 0 when max <= 0.
func (s *Stream) Jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(s.Int63n(int64(max)))
}

// Uniform returns a uniform duration in [lo, hi), and lo when hi <= lo.
func (s *Stream) Uniform(lo, hi time.Duration) time.Duration {
	return lo + s.Jitter(hi-lo)
}
