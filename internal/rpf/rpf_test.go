package rpf

import (
	"math/rand"
	"testing"

	"dapes/internal/bitmap"
)

func mk(n int, ones ...int) *bitmap.Bitmap {
	b := bitmap.New(n)
	for _, i := range ones {
		b.Set(i)
	}
	return b
}

func full(n int) *bitmap.Bitmap {
	b := bitmap.New(n)
	b.SetAll()
	return b
}

func TestLocalNeighborhoodPicksRarest(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(4, false, nil)
	// Packet 3 is missing from all three neighbors; packet 1 from one.
	s.Observe(1, mk(4, 0, 1, 2))
	s.Observe(2, mk(4, 0, 2))
	s.Observe(3, mk(4, 0, 1, 2))

	own := mk(4) // we have nothing
	got := s.NextRequest(own, full(4), nil)
	if got != 3 {
		t.Fatalf("NextRequest = %d, want 3 (rarest)", got)
	}
	// Once we have 3, next rarest is 1 (missing by one neighbor); 0 and 2
	// are held by everyone (rarity 0) — 1 wins.
	own.Set(3)
	if got := s.NextRequest(own, full(4), nil); got != 1 {
		t.Fatalf("NextRequest = %d, want 1", got)
	}
}

func TestNextRequestRespectsOwnAvailableSkip(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(4, false, nil)
	s.Observe(1, mk(4))

	// Own packets are never requested.
	if got := s.NextRequest(full(4), full(4), nil); got != -1 {
		t.Fatalf("complete peer requested %d", got)
	}
	// Unavailable packets are never requested.
	if got := s.NextRequest(mk(4), mk(4, 2), nil); got != 2 {
		t.Fatalf("availability filter: got %d, want 2", got)
	}
	// Busy (in-flight) packets are passed over.
	got := s.NextRequest(mk(4), full(4), mk(4, 0))
	if got == 0 || got == -1 {
		t.Fatalf("busy ignored: got %d", got)
	}
}

func TestLocalNeighborhoodDisconnectExpiresState(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(4, false, nil)
	s.Observe(1, mk(4, 0))
	s.Observe(2, mk(4, 0, 1))
	if s.counts.Len() != 2 {
		t.Fatalf("NeighborCount = %d", s.counts.Len())
	}
	s.Disconnect(1)
	if s.counts.Len() != 1 {
		t.Fatal("disconnect did not expire state")
	}
	s.Disconnect(99) // unknown peer is a no-op
	if s.counts.Len() != 1 {
		t.Fatal("unknown disconnect mutated state")
	}
}

func TestObserveRejectsWrongSize(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(4, false, nil)
	s.Observe(1, mk(8, 0))
	if s.counts.Len() != 0 {
		t.Fatal("wrong-size bitmap accepted")
	}
	e := NewEncounterBased(4, 10, false, nil)
	e.Observe(1, mk(8, 0))
	if len(e.order) != 0 {
		t.Fatal("wrong-size bitmap accepted by encounter strategy")
	}
}

func TestEncounterBasedRemembersDisconnectedPeers(t *testing.T) {
	t.Parallel()
	s := NewEncounterBased(4, 10, false, nil)
	s.Observe(1, mk(4, 0, 1, 2)) // peer 1 misses only 3
	s.Disconnect(1)              // walks away; history retained
	if len(s.order) != 1 {
		t.Fatal("disconnect erased encounter history")
	}
	got := s.NextRequest(mk(4), full(4), nil)
	if got != 3 {
		t.Fatalf("NextRequest = %d, want 3 (from history)", got)
	}
}

func TestEncounterBasedHistoryBound(t *testing.T) {
	t.Parallel()
	s := NewEncounterBased(4, 2, false, nil)
	s.Observe(1, mk(4, 0))
	s.Observe(2, mk(4, 1))
	s.Observe(3, mk(4, 2)) // evicts peer 1
	if len(s.order) != 2 {
		t.Fatalf("HistoryLen = %d, want 2", len(s.order))
	}
	// Re-observing refreshes recency: peer 2 becomes newest, then adding
	// peer 4 evicts peer 3.
	s.Observe(2, mk(4, 1, 3))
	s.Observe(4, mk(4))
	got := s.NextRequest(mk(4, 0, 1, 2), full(4), nil)
	// Remaining: packet 3. Peer 2's refreshed bitmap has 3 -> rarity 1 (only
	// peer 4 misses it). It is the only eligible packet.
	if got != 3 {
		t.Fatalf("NextRequest = %d, want 3", got)
	}
	if len(s.order) != 2 {
		t.Fatalf("HistoryLen after churn = %d", len(s.order))
	}
}

func TestEncounterHistoryMinimum(t *testing.T) {
	t.Parallel()
	s := NewEncounterBased(4, 0, false, nil)
	s.Observe(1, mk(4, 0))
	if len(s.order) != 1 {
		t.Fatal("history floor of 1 not applied")
	}
}

func TestSamePacketStartIsDeterministicAscending(t *testing.T) {
	t.Parallel()
	// With no rarity signal (no neighbors observed, everything available),
	// same-packet mode requests index 0 first — every peer starts identically.
	s := NewLocalNeighborhood(8, false, nil)
	if got := s.NextRequest(mk(8), full(8), nil); got != 0 {
		t.Fatalf("same-packet start = %d, want 0", got)
	}
}

func TestRandomStartDiversifiesFirstRequest(t *testing.T) {
	t.Parallel()
	firsts := make(map[int]bool)
	for seed := int64(0); seed < 20; seed++ {
		s := NewLocalNeighborhood(64, true, rand.New(rand.NewSource(seed)))
		firsts[s.NextRequest(mk(64), full(64), nil)] = true
	}
	if len(firsts) < 5 {
		t.Fatalf("random start produced only %d distinct first requests", len(firsts))
	}
}

func TestRandomStartStillPrefersRarity(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(8, true, rand.New(rand.NewSource(1)))
	bm := full(8)
	bm.Clear(5) // every neighbor misses packet 5 only
	s.Observe(1, bm.Clone())
	s.Observe(2, bm.Clone())
	if got := s.NextRequest(mk(8), full(8), nil); got != 5 {
		t.Fatalf("rarity overridden by random start: got %d", got)
	}
}

func TestRequestPlanOrderedAndBounded(t *testing.T) {
	t.Parallel()
	s := NewLocalNeighborhood(6, false, nil)
	s.Observe(1, mk(6, 0, 1))
	plan := RequestPlan(s, mk(6), full(6), 3)
	if len(plan) != 3 {
		t.Fatalf("plan length = %d", len(plan))
	}
	// Packets 2..5 (missing by the neighbor) come before 0,1.
	for _, p := range plan {
		if p == 0 || p == 1 {
			t.Fatalf("plan %v includes common packets before rare ones", plan)
		}
	}
	// Plan never repeats.
	seen := map[int]bool{}
	for _, p := range plan {
		if seen[p] {
			t.Fatalf("plan repeats %d", p)
		}
		seen[p] = true
	}
	// Exhaustive plan covers all missing+available.
	all := RequestPlan(s, mk(6), full(6), 100)
	if len(all) != 6 {
		t.Fatalf("exhaustive plan = %v", all)
	}
}

func TestStrategyNames(t *testing.T) {
	t.Parallel()
	if NewLocalNeighborhood(1, false, nil).Name() != "local-neighborhood" {
		t.Fatal("local name")
	}
	if NewEncounterBased(1, 1, false, nil).Name() != "encounter-based" {
		t.Fatal("encounter name")
	}
}
