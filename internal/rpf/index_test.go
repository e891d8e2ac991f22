package rpf

import (
	"fmt"
	"math/rand"
	"testing"

	"dapes/internal/bitmap"
)

// oracle is the definition the incremental index is held to: the member
// bitmaps as plain copies, and the scan-per-request selection this package
// shipped before the counters existed (one Test per packet per member).
type oracle struct {
	n       int
	history int   // 0: local neighbourhood (Disconnect forgets); >0: encounter history bound
	order   []int // encounter recency, oldest first
	members map[int]*bitmap.Bitmap
}

func (o *oracle) observe(id int, bm *bitmap.Bitmap) {
	if bm.Len() != o.n {
		return
	}
	if o.history > 0 {
		for i, known := range o.order {
			if known == id {
				o.order = append(o.order[:i], o.order[i+1:]...)
				break
			}
		}
		o.order = append(o.order, id)
	}
	o.members[id] = bm.Clone()
	for o.history > 0 && len(o.order) > o.history {
		delete(o.members, o.order[0])
		o.order = o.order[1:]
	}
}

func (o *oracle) disconnect(id int) {
	if o.history == 0 {
		delete(o.members, id)
	}
}

func (o *oracle) rarity(i int) int {
	missing := 0
	for _, bm := range o.members {
		if !bm.Test(i) {
			missing++
		}
	}
	return missing
}

func (o *oracle) selectRarest(own, available, busy *bitmap.Bitmap, tb tieBreaker) int {
	best, bestRarity, bestRank := -1, -1, 0
	for i := 0; i < o.n; i++ {
		if own.Test(i) || !available.Test(i) || (busy != nil && busy.Test(i)) {
			continue
		}
		r := o.rarity(i)
		if r > bestRarity || (r == bestRarity && tb.rank(i) < bestRank) {
			best, bestRarity, bestRank = i, r, tb.rank(i)
		}
	}
	return best
}

func randomBitmap(n int, density float64, rng *rand.Rand) *bitmap.Bitmap {
	b := bitmap.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

// TestIndexMatchesScan drives random Observe / Disconnect / eviction
// sequences through both strategies and holds every counter and every
// NextRequest to the oracle.
func TestIndexMatchesScan(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 63, 64, 65, 200} {
		for _, randomStart := range []bool{false, true} {
			for _, encounter := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/random=%v/encounter=%v", n, randomStart, encounter), func(t *testing.T) {
					driveAgainstOracle(t, n, randomStart, encounter)
				})
			}
		}
	}
}

func driveAgainstOracle(t *testing.T, n int, randomStart, encounter bool) {
	const history = 3 // small enough that eight peers keep evicting
	rng := rand.New(rand.NewSource(int64(n)))
	var s Strategy
	var sel *selector
	o := &oracle{n: n, members: make(map[int]*bitmap.Bitmap)}
	if encounter {
		e := NewEncounterBased(n, history, randomStart, rng)
		s, sel, o.history = e, &e.selector, history
	} else {
		l := NewLocalNeighborhood(n, randomStart, rng)
		s, sel = l, &l.selector
	}
	for step := 0; step < 300; step++ {
		id := rng.Intn(8)
		var bm *bitmap.Bitmap
		switch op := rng.Intn(10); {
		case op < 4: // a fresh advertisement
			bm = randomBitmap(n, rng.Float64(), rng)
		case op < 7: // re-observe: the stored bitmap with bits gained and lost
			bm = bitmap.New(n)
			if old := o.members[id]; old != nil {
				bm = old.Clone()
			}
			for flips := rng.Intn(4) + 1; flips > 0; flips-- {
				if i := rng.Intn(n); bm.Test(i) {
					bm.Clear(i)
				} else {
					bm.Set(i)
				}
			}
		case op < 8: // wrong length: ignored
			bm = randomBitmap(n+1+rng.Intn(70), 0.5, rng)
		}
		if bm != nil {
			s.Observe(id, bm)
			o.observe(id, bm)
		} else {
			s.Disconnect(id)
			o.disconnect(id)
		}

		if sel.counts.Len() != len(o.members) {
			t.Fatalf("step %d: %d members, oracle has %d", step, sel.counts.Len(), len(o.members))
		}
		for i := 0; i < n; i++ {
			if got, want := sel.counts.Of(i), o.rarity(i); got != want {
				t.Fatalf("step %d: count[%d] = %d, recount = %d", step, i, got, want)
			}
		}
		for q := 0; q < 4; q++ {
			own := randomBitmap(n, rng.Float64(), rng)
			available := randomBitmap(n, rng.Float64(), rng)
			var busy *bitmap.Bitmap
			if q > 0 {
				busy = randomBitmap(n, rng.Float64()/2, rng)
			}
			if got, want := s.NextRequest(own, available, busy), o.selectRarest(own, available, busy, sel.tb); got != want {
				t.Fatalf("step %d: NextRequest = %d, scan = %d", step, got, want)
			}
		}
	}
}

// probeShape is the benchmark probe's rpf.plan_ns world: 200 packets, eight
// neighbours.
func probeShape(s Strategy, rng *rand.Rand) (own, available, busy *bitmap.Bitmap) {
	for id := 0; id < 8; id++ {
		s.Observe(id, randomBitmap(200, 0.5, rng))
	}
	return randomBitmap(200, 0.5, rng), full(200), randomBitmap(200, 0.1, rng)
}

func TestNextRequestDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []Strategy{NewLocalNeighborhood(200, true, rng), NewEncounterBased(200, 20, true, rng)} {
		own, available, busy := probeShape(s, rng)
		reobserved := randomBitmap(200, 0.5, rng)
		if allocs := testing.AllocsPerRun(100, func() {
			s.Observe(3, reobserved) // a known peer's new bitmap overwrites the stored copy
			if s.NextRequest(own, available, busy) < 0 {
				t.Fatal("nothing eligible")
			}
		}); allocs != 0 {
			t.Errorf("%s: re-Observe + NextRequest allocates %.0f objects/op, want 0", s.Name(), allocs)
		}
	}
}

var benchSink int

func BenchmarkNextRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewLocalNeighborhood(200, true, rng)
	own, available, busy := probeShape(s, rng)
	b.ReportAllocs()
	for b.Loop() {
		benchSink += s.NextRequest(own, available, busy)
	}
}

func BenchmarkObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewLocalNeighborhood(200, true, rng)
	probeShape(s, rng)
	// A downloader re-advertising as it gains packets: a few bits differ
	// from the stored copy each time.
	adverts := make([]*bitmap.Bitmap, 16)
	bm := randomBitmap(200, 0.2, rng)
	for i := range adverts {
		for gained := 0; gained < 4; gained++ {
			bm.Set(rng.Intn(200))
		}
		adverts[i] = bm.Clone()
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		s.Observe(3, adverts[i%len(adverts)])
		i++
	}
}
