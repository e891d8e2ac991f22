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

// Clamp returns p clamped into the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(0, math.Min(r.Width, p.X)),
		Y: math.Max(0, math.Min(r.Height, p.Y)),
	}
}

// Mobility yields a node's position as a function of virtual time.
type Mobility interface {
	// PositionAt returns the node position at virtual time t.
	PositionAt(t time.Duration) Point
}

// Stationary is a mobility model that never moves.
type Stationary struct {
	At Point
}

var _ Mobility = Stationary{}
var _ Speeder = Stationary{}

// PositionAt implements Mobility.
func (s Stationary) PositionAt(time.Duration) Point { return s.At }

// MaxSpeed implements Speeder: a stationary node never moves.
func (s Stationary) MaxSpeed() float64 { return 0 }

// randomDirectionLeg is one straight-line segment of a random-direction walk.
// The heading is kept as the cosine and sine of the drawn angle, taken once
// when the leg is drawn: every position query multiplies by them.
type randomDirectionLeg struct {
	start    time.Duration
	from     Point
	cos, sin float64
	speed    float64 // m/s
	duration time.Duration
}

func (l randomDirectionLeg) end() time.Duration { return l.start + l.duration }

func (l randomDirectionLeg) positionAt(t time.Duration) Point {
	if t < l.start {
		t = l.start
	}
	if t > l.end() {
		t = l.end()
	}
	dt := (t - l.start).Seconds()
	return l.from.Add(l.speed*dt*l.cos, l.speed*dt*l.sin)
}

// RandomDirection implements the paper's mobility model: each node repeatedly
// picks a uniformly random direction in [0, 2π) and a uniformly random speed
// in [MinSpeed, MaxSpeed], walks for a random leg duration, and reflects off
// the area boundary. Legs are generated lazily and deterministically from the
// provided random source.
type RandomDirection struct {
	area     Rect
	minSpeed float64
	maxSpeed float64
	minLeg   time.Duration
	maxLeg   time.Duration
	rng      Rand
	legs     []randomDirectionLeg
	// hit is the leg the last query fell in; simulation time mostly moves
	// forward a little at a time, so the next query usually falls there too.
	hit int
}

var _ Mobility = (*RandomDirection)(nil)
var _ Speeder = (*RandomDirection)(nil)

// Rand is what a walker draws its legs from: a node's *sim.Stream in the
// simulation, a *math/rand.Rand anywhere else.
type Rand interface {
	Float64() float64
	Int63n(n int64) int64
}

// RandomDirectionConfig configures a RandomDirection walker.
type RandomDirectionConfig struct {
	Area     Rect
	Start    Point
	MinSpeed float64 // m/s; paper: 2
	MaxSpeed float64 // m/s; paper: 10
	MinLeg   time.Duration
	MaxLeg   time.Duration
	// RNG is required: a walk has no default randomness.
	RNG Rand
}

// NewRandomDirection returns a walker starting at cfg.Start. Zero speeds
// default to the paper's 2–10 m/s and zero leg bounds to 5–20 s.
func NewRandomDirection(cfg RandomDirectionConfig) *RandomDirection {
	if cfg.MinSpeed == 0 && cfg.MaxSpeed == 0 {
		cfg.MinSpeed, cfg.MaxSpeed = 2, 10
	}
	if cfg.MinLeg == 0 && cfg.MaxLeg == 0 {
		cfg.MinLeg, cfg.MaxLeg = 5*time.Second, 20*time.Second
	}
	if cfg.RNG == nil {
		panic("geo: NewRandomDirection without an RNG")
	}
	w := &RandomDirection{
		area:     cfg.Area,
		minSpeed: cfg.MinSpeed,
		maxSpeed: cfg.MaxSpeed,
		minLeg:   cfg.MinLeg,
		maxLeg:   cfg.MaxLeg,
		rng:      cfg.RNG,
	}
	w.legs = append(w.legs, w.nextLeg(0, cfg.Area.Clamp(cfg.Start)))
	return w
}

func (w *RandomDirection) nextLeg(start time.Duration, from Point) randomDirectionLeg {
	angle := w.rng.Float64() * 2 * math.Pi
	speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
	dur := w.minLeg + time.Duration(w.rng.Int63n(int64(w.maxLeg-w.minLeg)+1))
	leg := randomDirectionLeg{start: start, from: from, cos: math.Cos(angle), sin: math.Sin(angle), speed: speed, duration: dur}
	// Truncate the leg at the boundary so the node "bounces": the next leg
	// starts at the wall with a fresh random direction.
	endPos := leg.positionAt(leg.end())
	if !w.area.Contains(endPos) {
		leg.duration = w.timeToBoundary(leg)
	}
	return leg
}

// timeToBoundary returns the duration after which the leg first exits the
// area, found by bisection (positions are monotone along the leg).
func (w *RandomDirection) timeToBoundary(leg randomDirectionLeg) time.Duration {
	lo, hi := time.Duration(0), leg.duration
	for i := 0; i < 40 && hi-lo > time.Millisecond; i++ {
		mid := (lo + hi) / 2
		if w.area.Contains(leg.positionAt(leg.start + mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MaxSpeed implements Speeder. Leg speeds interpolate between minSpeed and
// maxSpeed, so the larger of the two bounds them even for a misconfigured
// walker with MinSpeed > MaxSpeed.
func (w *RandomDirection) MaxSpeed() float64 { return math.Max(w.minSpeed, w.maxSpeed) }

// PositionAt implements Mobility, extending the walk lazily to cover t.
func (w *RandomDirection) PositionAt(t time.Duration) Point {
	for {
		last := w.legs[len(w.legs)-1]
		if t <= last.end() {
			break
		}
		from := w.area.Clamp(last.positionAt(last.end()))
		w.legs = append(w.legs, w.nextLeg(last.end(), from))
	}
	// The covering leg is the last one starting at or before t: the one the
	// previous query hit, or else found by binary search.
	if i := w.hit; w.legs[i].start > t || (i+1 < len(w.legs) && w.legs[i+1].start <= t) {
		lo, hi := 0, len(w.legs)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if w.legs[mid].start <= t {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		w.hit = lo
	}
	return w.area.Clamp(w.legs[w.hit].positionAt(t))
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
var _ Speeder = (*Scripted)(nil)

// NewScripted returns a scripted path over the given waypoints, which must be
// ordered by time. Before the first waypoint the node sits at the first
// position; after the last it sits at the last.
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
			// Two waypoints at the same instant teleport the node: no
			// finite speed bound exists.
			s.maxSpeed = math.Inf(1)
		}
	}
	return s
}

// MaxSpeed implements Speeder: the steepest waypoint-to-waypoint segment
// bounds the whole path (+Inf when waypoints teleport).
func (s *Scripted) MaxSpeed() float64 { return s.maxSpeed }

// PositionAt implements Mobility.
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
