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

// TestWalkMatchesReference queries 50 walkers 1e5 times — forward in small
// steps as a simulation does, at leg boundaries, and at random times that
// jump back and forth across the whole walk — and requires every position
// to equal the reference's exactly.
func TestWalkMatchesReference(t *testing.T) {
	t.Parallel()
	area := Rect{Width: 300, Height: 300} // small enough that most legs bounce
	pick := rand.New(rand.NewSource(99))
	const walkers, queries = 50, 2000
	for i := 0; i < walkers; i++ {
		start := Point{X: pick.Float64() * area.Width, Y: pick.Float64() * area.Height}
		walk := NewRandomDirection(RandomDirectionConfig{Area: area, Start: start, RNG: rand.New(rand.NewSource(int64(i)))})
		ref := newRefWalk(area, start, rand.New(rand.NewSource(int64(i))))
		check := func(at time.Duration) {
			t.Helper()
			if got, want := walk.PositionAt(at), ref.PositionAt(at); got.X != want.X || got.Y != want.Y {
				t.Fatalf("walker %d at %v: got %v, reference %v", i, at, got, want)
			}
		}
		var now time.Duration
		for q := 0; q < queries/2; q++ { // monotone, sub-leg steps
			now += time.Duration(pick.Int63n(int64(2 * time.Second)))
			check(now)
		}
		for _, leg := range ref.legs { // both sides of every leg boundary
			check(leg.start)
			check(leg.end())
			check(leg.end() + 1)
		}
		for q := 0; q < queries/2; q++ { // random access, past the drawn legs too
			check(time.Duration(pick.Int63n(int64(2 * now))))
		}
		if len(walk.legs) != len(ref.legs) {
			t.Fatalf("walker %d drew %d legs, reference %d", i, len(walk.legs), len(ref.legs))
		}
	}
}
