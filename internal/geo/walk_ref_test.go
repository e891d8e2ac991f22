package geo

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// refWalk is the random-direction walk as it was defined before legs cached
// their heading and the walker its last-hit leg: the angle is kept and its
// cosine and sine taken on every query, and every query binary-searches the
// legs. RandomDirection must reproduce its positions bit for bit, from the
// same draws of the same random source.
type refWalk struct {
	area               Rect
	minSpeed, maxSpeed float64
	minLeg, maxLeg     time.Duration
	rng                *rand.Rand
	legs               []refLeg
}

type refLeg struct {
	start        time.Duration
	from         Point
	angle, speed float64
	duration     time.Duration
}

func (l refLeg) end() time.Duration { return l.start + l.duration }

func (l refLeg) positionAt(t time.Duration) Point {
	if t < l.start {
		t = l.start
	}
	if t > l.end() {
		t = l.end()
	}
	dt := (t - l.start).Seconds()
	return l.from.Add(l.speed*dt*math.Cos(l.angle), l.speed*dt*math.Sin(l.angle))
}

func newRefWalk(area Rect, start Point, rng *rand.Rand) *refWalk {
	w := &refWalk{area: area, minSpeed: 2, maxSpeed: 10, minLeg: 5 * time.Second, maxLeg: 20 * time.Second, rng: rng}
	w.legs = append(w.legs, w.nextLeg(0, area.Clamp(start)))
	return w
}

func (w *refWalk) nextLeg(start time.Duration, from Point) refLeg {
	angle := w.rng.Float64() * 2 * math.Pi
	speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
	dur := w.minLeg + time.Duration(w.rng.Int63n(int64(w.maxLeg-w.minLeg)+1))
	leg := refLeg{start: start, from: from, angle: angle, speed: speed, duration: dur}
	if !w.area.Contains(leg.positionAt(leg.end())) {
		lo, hi := time.Duration(0), leg.duration
		for i := 0; i < 40 && hi-lo > time.Millisecond; i++ {
			mid := (lo + hi) / 2
			if w.area.Contains(leg.positionAt(leg.start + mid)) {
				lo = mid
			} else {
				hi = mid
			}
		}
		leg.duration = lo
	}
	return leg
}

func (w *refWalk) PositionAt(t time.Duration) Point {
	for {
		last := w.legs[len(w.legs)-1]
		if t <= last.end() {
			break
		}
		w.legs = append(w.legs, w.nextLeg(last.end(), w.area.Clamp(last.positionAt(last.end()))))
	}
	lo, hi := 0, len(w.legs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if w.legs[mid].start <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return w.area.Clamp(w.legs[lo].positionAt(t))
}

// walkSchedule queries a walker the way TestWalkMatchesReference does: once
// before the walk starts, forward in small steps as a simulation does, both
// sides of every leg boundary drawn by then (bounds is called once, after the
// forward steps), and at random times that jump back and forth across twice
// the walk so far.
func walkSchedule(pick *rand.Rand, queries int, bounds func() []time.Duration, check func(time.Duration)) {
	check(-time.Second)
	var now time.Duration
	for q := 0; q < queries/2; q++ { // monotone, sub-leg steps
		now += time.Duration(pick.Int63n(int64(2 * time.Second)))
		check(now)
	}
	for _, b := range bounds() {
		check(b)
		check(b + 1)
	}
	for q := 0; q < queries/2; q++ { // random access, past the drawn legs too
		check(time.Duration(pick.Int63n(int64(2 * now))))
	}
}

// TestWalkMatchesReference queries 50 walkers 1e5 times on walkSchedule and
// requires every position to equal the reference's exactly.
func TestWalkMatchesReference(t *testing.T) {
	t.Parallel()
	area := Rect{Width: 300, Height: 300} // small enough that most legs bounce
	pick := rand.New(rand.NewSource(99))
	const walkers, queries = 50, 2000
	for i := 0; i < walkers; i++ {
		start := Point{X: pick.Float64() * area.Width, Y: pick.Float64() * area.Height}
		walk := NewRandomDirection(RandomDirectionConfig{Area: area, Start: start, RNG: rand.New(rand.NewSource(int64(i)))})
		ref := newRefWalk(area, start, rand.New(rand.NewSource(int64(i))))
		bounds := func() (b []time.Duration) {
			for _, leg := range ref.legs {
				b = append(b, leg.start, leg.end())
			}
			return b
		}
		walkSchedule(pick, queries, bounds, func(at time.Duration) {
			t.Helper()
			if got, want := walk.PositionAt(at), ref.PositionAt(at); got.X != want.X || got.Y != want.Y {
				t.Fatalf("walker %d at %v: got %v, reference %v", i, at, got, want)
			}
		})
		if len(walk.legs) != len(ref.legs) {
			t.Fatalf("walker %d drew %d legs, reference %d", i, len(walk.legs), len(ref.legs))
		}
	}
}

// samePoint compares bit for bit: -0 is not 0 and a NaN equals itself.
func samePoint(p, q Point) bool {
	return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
}

// TestLegMatchesPositionAt holds the Mobility leg contract on walkSchedule: the leg
// LegAt(t) returns covers t (for t >= 0) and gives PositionAt's answers bit
// for bit at t and across its span — at both ends too, where a caller still
// holding the previous leg evaluates that one at the instant the next begins.
// A walker queried only through legs draws the same walk as one queried only
// through positions. Stationary's one leg is its point at every time,
// negative coordinates included.
func TestLegMatchesPositionAt(t *testing.T) {
	t.Parallel()
	area := Rect{Width: 300, Height: 300}
	pick := rand.New(rand.NewSource(99))
	const walkers, queries = 50, 2000
	for i := 0; i < walkers; i++ {
		start := Point{X: pick.Float64() * area.Width, Y: pick.Float64() * area.Height}
		legs := NewRandomDirection(RandomDirectionConfig{Area: area, Start: start, RNG: rand.New(rand.NewSource(int64(i)))})
		positions := NewRandomDirection(RandomDirectionConfig{Area: area, Start: start, RNG: rand.New(rand.NewSource(int64(i)))})
		bounds := func() (b []time.Duration) {
			for _, leg := range legs.legs {
				b = append(b, leg.Start, leg.End)
			}
			return b
		}
		walkSchedule(pick, queries, bounds, func(at time.Duration) {
			t.Helper()
			l := legs.LegAt(at)
			if at >= 0 && (at < l.Start || at > l.End) {
				t.Fatalf("walker %d: LegAt(%v) spans [%v, %v]", i, at, l.Start, l.End)
			}
			for _, u := range []time.Duration{at, l.Start, l.End, l.Start + (l.End-l.Start)/3} {
				if got, want := l.At(u), positions.PositionAt(u); !samePoint(got, want) {
					t.Fatalf("walker %d: LegAt(%v).At(%v) = %v, PositionAt = %v", i, at, u, got, want)
				}
			}
		})
		if len(legs.legs) != len(positions.legs) {
			t.Fatalf("walker %d drew %d legs through LegAt, %d through PositionAt", i, len(legs.legs), len(positions.legs))
		}
		for j := 1; j < len(legs.legs); j++ {
			if prev, next := legs.legs[j-1], legs.legs[j]; prev.End != next.Start || !samePoint(prev.At(prev.End), next.At(next.Start)) {
				t.Fatalf("walker %d: leg %d ends at %v %v, leg %d starts at %v %v", i, j-1, prev.End, prev.At(prev.End), j, next.Start, next.At(next.Start))
			}
		}
	}

	s := Stationary{At: Point{X: -3, Y: math.Copysign(0, -1)}}
	for _, at := range []time.Duration{math.MinInt64, -time.Second, 0, time.Hour, math.MaxInt64} {
		l := s.LegAt(at)
		if at < l.Start || at > l.End {
			t.Fatalf("Stationary.LegAt(%v) spans [%v, %v]", at, l.Start, l.End)
		}
		if got := l.At(at); !samePoint(got, s.At) {
			t.Fatalf("Stationary.LegAt(%v).At = %v, want %v", at, got, s.At)
		}
	}
}
