// Package rpf implements the Rarest-Piece-First data fetching strategies of
// Section IV-E:
//
//   - LocalNeighborhood: rarity is computed over the bitmaps of peers
//     currently within communication range. State expires when peers
//     disconnect, so no long-term state is kept.
//   - EncounterBased: rarity is computed over the bitmaps of the last N
//     encountered peers, approximating rarity across the whole swarm at the
//     cost of per-peer history.
//
// Both support the paper's "same packet" versus "random packet" start: with
// RandomStart, rarity ties break by a per-peer random permutation instead of
// ascending index, which diversifies the first requests across peers
// (Section VI-C reports 11–15% faster downloads).
//
// Both keep one bitmap.Rarity current as bitmaps are observed, replaced and
// dropped, and share one selection loop over it, so a request costs the
// candidate packets rather than packets x member bitmaps.
package rpf

import (
	"math/bits"

	"dapes/internal/bitmap"
)

// Strategy chooses which missing packet to request next.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Observe folds a peer's advertised bitmap into rarity state.
	Observe(peerID int, bm *bitmap.Bitmap)
	// Disconnect signals that a peer left communication range.
	Disconnect(peerID int)
	// NextRequest returns the global index of the next packet to request:
	// the rarest packet that the local peer is missing (clear in own), that
	// is available from at least one currently reachable peer (set in
	// available), and that is not busy (e.g. already in flight; a nil busy
	// excludes nothing). It returns -1 when no packet qualifies.
	NextRequest(own, available, busy *bitmap.Bitmap) int
}

// Rand is what a strategy draws its random tie order from: the peer's
// *sim.Stream in the simulation, a *math/rand.Rand anywhere else.
type Rand interface {
	Perm(n int) []int
}

// tieBreaker orders packets with equal rarity.
type tieBreaker struct {
	randomStart bool
	perm        []int // perm[i] = rank of index i when randomStart
}

func newTieBreaker(n int, randomStart bool, rng Rand) tieBreaker {
	tb := tieBreaker{randomStart: randomStart}
	if randomStart {
		p := rng.Perm(n)
		tb.perm = make([]int, n)
		for rank, idx := range p {
			tb.perm[idx] = rank
		}
	}
	return tb
}

// rank returns the tie-break rank of packet i (lower requests earlier).
func (tb tieBreaker) rank(i int) int {
	if tb.randomStart && i < len(tb.perm) {
		return tb.perm[i]
	}
	return i
}

// selector is the state and the selection loop both strategies share: the
// rarity counts over the strategy's member bitmaps, kept current by
// Observe/Disconnect, and the tie-break order.
type selector struct {
	n      int
	tb     tieBreaker
	counts *bitmap.Rarity
}

func newSelector(n int, randomStart bool, rng Rand) selector {
	return selector{n: n, tb: newTieBreaker(n, randomStart, rng), counts: bitmap.NewRarity(n)}
}

// NextRequest implements Strategy: the candidates are available &^ own &^
// busy, formed 64 packets at a time, and only their set bits are ranked —
// highest rarity first, ties by tb.
func (s *selector) NextRequest(own, available, busy *bitmap.Bitmap) int {
	best, bestRarity, bestRank := -1, -1, 0
	for w := 0; w*64 < s.n; w++ {
		for cand := available.Word(w) &^ own.Word(w) &^ busy.Word(w); cand != 0; cand &= cand - 1 {
			i := w*64 + bits.TrailingZeros64(cand)
			if i >= s.n {
				break
			}
			r := s.counts.Of(i)
			if r > bestRarity || (r == bestRarity && s.tb.rank(i) < bestRank) {
				best, bestRarity, bestRank = i, r, s.tb.rank(i)
			}
		}
	}
	return best
}

// LocalNeighborhood is the local-neighborhood RPF variant: rarity counts how
// many currently connected peers are missing each packet.
type LocalNeighborhood struct{ selector }

var _ Strategy = (*LocalNeighborhood)(nil)

// NewLocalNeighborhood returns the strategy for a collection of n packets.
// rng is used only when randomStart is set.
func NewLocalNeighborhood(n int, randomStart bool, rng Rand) *LocalNeighborhood {
	return &LocalNeighborhood{newSelector(n, randomStart, rng)}
}

// Name implements Strategy.
func (s *LocalNeighborhood) Name() string { return "local-neighborhood" }

// Observe implements Strategy: the latest bitmap per connected peer wins
// (a bitmap of the wrong length is ignored).
func (s *LocalNeighborhood) Observe(peerID int, bm *bitmap.Bitmap) {
	_ = s.counts.Put(peerID, bm)
}

// Disconnect implements Strategy: per the paper, the rarity list is specific
// to the connected set and expires on disconnect.
func (s *LocalNeighborhood) Disconnect(peerID int) { s.counts.Remove(peerID) }

// NeighborCount returns the number of peers with live bitmaps.
func (s *LocalNeighborhood) NeighborCount() int { return s.counts.Len() }

// EncounterBased is the encounter-history RPF variant: rarity counts how many
// of the last HistorySize encountered peers were missing each packet,
// regardless of whether they are still in range.
type EncounterBased struct {
	selector
	history int
	order   []int // peer IDs, oldest first
}

var _ Strategy = (*EncounterBased)(nil)

// NewEncounterBased returns the strategy remembering up to history peers.
func NewEncounterBased(n, history int, randomStart bool, rng Rand) *EncounterBased {
	if history < 1 {
		history = 1
	}
	return &EncounterBased{selector: newSelector(n, randomStart, rng), history: history}
}

// Name implements Strategy.
func (s *EncounterBased) Name() string { return "encounter-based" }

// Observe implements Strategy: re-observing a known peer refreshes its bitmap
// and recency; new peers evict the oldest entry beyond the history bound.
func (s *EncounterBased) Observe(peerID int, bm *bitmap.Bitmap) {
	if s.counts.Put(peerID, bm) != nil {
		return
	}
	for i, id := range s.order {
		if id == peerID {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.order = append(s.order, peerID)
	for len(s.order) > s.history {
		s.counts.Remove(s.order[0])
		s.order = s.order[1:]
	}
}

// Disconnect implements Strategy: encounter history survives disconnection.
func (s *EncounterBased) Disconnect(int) {}

// HistoryLen returns the number of remembered encounters.
func (s *EncounterBased) HistoryLen() int { return len(s.order) }

// RequestPlan returns up to limit next requests in strategy order without
// mutating state; useful for pipelined fetching and for tests.
func RequestPlan(s Strategy, own, available *bitmap.Bitmap, limit int) []int {
	planned := bitmap.New(available.Len()) // every pick is a set bit of available
	var out []int
	for len(out) < limit {
		next := s.NextRequest(own, available, planned)
		if next < 0 {
			break
		}
		planned.Set(next)
		out = append(out, next)
	}
	return out
}
