// Package geo provides 2D geometry and node mobility models for the wireless
// simulation: the random-direction model used in the paper's Fig. 7
// simulations and scripted waypoint paths used for the Fig. 8 real-world
// scenarios.
package geo

import (
	"math"
	"time"
)

// Point is a position in meters on the 2D simulation plane.
type Point struct {
	X float64
	Y float64
}

// Distance returns the Euclidean distance between p and q in meters.
func (p Point) Distance(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point {
	return Point{X: p.X + dx, Y: p.Y + dy}
}

// Rect is an axis-aligned bounding rectangle with its origin at (0, 0).
type Rect struct {
	Width  float64
	Height float64
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= 0 && p.X <= r.Width && p.Y >= 0 && p.Y <= r.Height
}

// Clamp returns p clamped into the rectangle. The builtin min and max are
// inlined where math.Min and math.Max are not, and return what they return
// bit for bit, ±0 and ±Inf included, but for which NaN a NaN coordinate
// gives (TestClampMatchesMathMinMax).
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: max(0, min(r.Width, p.X)),
		Y: max(0, min(r.Height, p.Y)),
	}
}

// Mobility is a node's path over virtual time, handed out a leg at a time
// under a finite speed bound: every model the simulation moves nodes with
// (stationary, random-direction, scripted) has one.
type Mobility interface {
	// LegAt returns a leg covering t (for every t >= 0) that holds the
	// model's positions bit for bit over its whole span, so a caller may
	// keep it and evaluate it until time leaves [Start, End].
	LegAt(t time.Duration) Leg
	// MaxSpeed returns an upper bound on the node's speed in meters per
	// second; 0 means the node never moves. Spatial indexes over moving
	// nodes (phy.Medium's grid) widen queries by how far a node may have
	// drifted since it was stored.
	MaxSpeed() float64
}

// Stationary is a mobility model that never moves.
type Stationary struct {
	At Point
}

var _ Mobility = Stationary{}

// MaxSpeed implements Mobility: a stationary node never moves.
func (s Stationary) MaxSpeed() float64 { return 0 }

// LegAt implements Mobility: one speed-0 leg over all time.
func (s Stationary) LegAt(time.Duration) Leg {
	return Leg{Start: math.MinInt64, End: math.MaxInt64, From: s.At}
}

// Leg is one straight stretch of a node's path: over [Start, End] the node
// moves from From at Speed metres per second along the heading (Cos, Sin),
// clamped into Area. The heading is kept as a cosine and sine, taken once
// when the leg is drawn: every position query multiplies by them.
type Leg struct {
	Start, End time.Duration
	From       Point
	Cos, Sin   float64
	Speed      float64 // m/s
	Area       Rect
}

// At returns the position on the leg at t, with t clamped into [Start, End].
// A leg with zero speed is From wherever it lies, inside Area or not; any
// other leg's position is clamped into Area.
func (l *Leg) At(t time.Duration) Point {
	if l.Speed == 0 {
		return l.From
	}
	return l.Area.Clamp(l.along(t))
}

// along is At before the clamp into Area: where the straight line is at t.
func (l *Leg) along(t time.Duration) Point {
	if t < l.Start {
		t = l.Start
	}
	if t > l.End {
		t = l.End
	}
	dt := (t - l.Start).Seconds()
	return l.From.Add(l.Speed*dt*l.Cos, l.Speed*dt*l.Sin)
}

// The paper's random-direction walk: leg speeds in [2, 10] m/s, leg
// durations in [5, 20] s.
const (
	walkMinSpeed = 2.0
	walkMaxSpeed = 10.0
	walkMinLeg   = 5 * time.Second
	walkMaxLeg   = 20 * time.Second
)

// RandomDirection implements the paper's mobility model: each node repeatedly
// picks a uniformly random direction in [0, 2π) and a uniformly random speed
// in [2, 10] m/s, walks for a random leg duration of 5 to 20 s, and reflects
// off the area boundary. Legs are generated lazily and deterministically from
// the provided random source.
type RandomDirection struct {
	area Rect
	rng  Rand
	// legs is the walk drawn so far. It starts in first, inside the walker,
	// and moves out only once the walk outgrows it: most walkers of a short
	// trial never draw a third leg.
	legs []Leg
	// hit is the leg the last query fell in; simulation time mostly moves
	// forward a little at a time, so the next query usually falls there too.
	hit   int
	first [2]Leg
}

var _ Mobility = (*RandomDirection)(nil)

// Rand is what a walker draws its legs from: a node's *sim.Stream in the
// simulation, a *math/rand.Rand anywhere else.
type Rand interface {
	Float64() float64
	Int63n(n int64) int64
}

// RandomDirectionConfig configures a RandomDirection walker.
type RandomDirectionConfig struct {
	Area  Rect
	Start Point
	// RNG is required: a walk has no default randomness.
	RNG Rand
}

// NewRandomDirection returns a walker starting at cfg.Start.
func NewRandomDirection(cfg RandomDirectionConfig) *RandomDirection {
	w := new(RandomDirection)
	w.Init(cfg)
	return w
}

// Init builds the walker NewRandomDirection(cfg) returns in place at w,
// drawing the same legs: a world that walks every node can hold its walkers
// in one slice. A built walker holds its first legs inside itself, so it
// must not be copied.
func (w *RandomDirection) Init(cfg RandomDirectionConfig) {
	if cfg.RNG == nil {
		panic("geo: NewRandomDirection without an RNG")
	}
	*w = RandomDirection{area: cfg.Area, rng: cfg.RNG}
	w.legs = append(w.first[:0], w.nextLeg(0, cfg.Area.Clamp(cfg.Start)))
}

func (w *RandomDirection) nextLeg(start time.Duration, from Point) Leg {
	angle := w.rng.Float64() * 2 * math.Pi
	speed := walkMinSpeed + w.rng.Float64()*(walkMaxSpeed-walkMinSpeed)
	dur := walkMinLeg + time.Duration(w.rng.Int63n(int64(walkMaxLeg-walkMinLeg)+1))
	leg := Leg{Start: start, End: start + dur, From: from, Cos: math.Cos(angle), Sin: math.Sin(angle), Speed: speed, Area: w.area}
	// Truncate the leg at the boundary so the node "bounces": the next leg
	// starts at the wall with a fresh random direction.
	if !w.area.Contains(leg.along(leg.End)) {
		leg.End = start + w.timeToBoundary(&leg)
	}
	return leg
}

// timeToBoundary returns the duration after which the leg first exits the
// area, found by bisection (positions are monotone along the leg).
func (w *RandomDirection) timeToBoundary(leg *Leg) time.Duration {
	lo, hi := time.Duration(0), leg.End-leg.Start
	for i := 0; i < 40 && hi-lo > time.Millisecond; i++ {
		mid := (lo + hi) / 2
		if w.area.Contains(leg.along(leg.Start + mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MaxSpeed implements Mobility: no leg is faster than the paper's 10 m/s.
func (w *RandomDirection) MaxSpeed() float64 { return walkMaxSpeed }

// PositionAt returns the walker's position at t, extending the walk lazily
// to cover it.
func (w *RandomDirection) PositionAt(t time.Duration) Point {
	l := w.LegAt(t)
	return l.At(t)
}

// LegAt implements Mobility, extending the walk lazily to cover t. A leg ends
// where the next starts, at the same point, so at a boundary instant either
// leg gives the same position; LegAt returns the later one.
func (w *RandomDirection) LegAt(t time.Duration) Leg {
	for {
		last := &w.legs[len(w.legs)-1]
		if t <= last.End {
			break
		}
		w.legs = append(w.legs, w.nextLeg(last.End, w.area.Clamp(last.along(last.End))))
	}
	// The covering leg is the last one starting at or before t: the one the
	// previous query hit, or else found by binary search.
	if i := w.hit; w.legs[i].Start > t || (i+1 < len(w.legs) && w.legs[i+1].Start <= t) {
		lo, hi := 0, len(w.legs)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if w.legs[mid].Start <= t {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		w.hit = lo
	}
	return w.legs[w.hit]
}

// Waypoint is a scripted position at a virtual time.
type Waypoint struct {
	At  time.Duration
	Pos Point
}

// Scripted is a mobility model that linearly interpolates between an ordered
// list of waypoints; used to reproduce the Fig. 8 outdoor scenarios where
// peers follow choreographed paths.
type Scripted struct {
	points   []Waypoint
	maxSpeed float64
}

var _ Mobility = (*Scripted)(nil)

// NewScripted returns a scripted path over the given waypoints, which must be
// ordered by time. Before the first waypoint the node sits at the first
// position; after the last it sits at the last. It panics on two waypoints
// at one instant in two places: a teleport has no finite speed bound.
func NewScripted(points []Waypoint) *Scripted {
	cp := make([]Waypoint, len(points))
	copy(cp, points)
	s := &Scripted{points: cp}
	for i := 1; i < len(cp); i++ {
		dist := cp[i-1].Pos.Distance(cp[i].Pos)
		span := cp[i].At - cp[i-1].At
		switch {
		case span > 0:
			if v := dist / span.Seconds(); v > s.maxSpeed {
				s.maxSpeed = v
			}
		case dist > 0:
			panic("geo: NewScripted with a waypoint elsewhere at the same or an earlier instant")
		}
	}
	return s
}

// MaxSpeed implements Mobility: the steepest waypoint-to-waypoint segment
// bounds the whole path.
func (s *Scripted) MaxSpeed() float64 { return s.maxSpeed }

// LegAt implements Mobility with a one-instant leg at PositionAt(t): a
// caller holding it asks again as soon as the clock moves.
func (s *Scripted) LegAt(t time.Duration) Leg {
	return Leg{Start: t, End: t, From: s.PositionAt(t)}
}

// PositionAt returns the scripted position at t.
func (s *Scripted) PositionAt(t time.Duration) Point {
	if len(s.points) == 0 {
		return Point{}
	}
	if t <= s.points[0].At {
		return s.points[0].Pos
	}
	last := s.points[len(s.points)-1]
	if t >= last.At {
		return last.Pos
	}
	for i := 1; i < len(s.points); i++ {
		if t <= s.points[i].At {
			a, b := s.points[i-1], s.points[i]
			span := b.At - a.At
			if span == 0 {
				return b.Pos
			}
			frac := float64(t-a.At) / float64(span)
			return Point{
				X: a.Pos.X + frac*(b.Pos.X-a.Pos.X),
				Y: a.Pos.Y + frac*(b.Pos.Y-a.Pos.Y),
			}
		}
	}
	return last.Pos
}
