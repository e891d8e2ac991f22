package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPointDistance(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Distance(tt.q); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("Distance = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectContainsAndClamp(t *testing.T) {
	t.Parallel()
	r := Rect{Width: 300, Height: 300}
	if !r.Contains(Point{150, 150}) {
		t.Fatal("center not contained")
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{300, 300}) {
		t.Fatal("boundary not contained")
	}
	if r.Contains(Point{-1, 150}) || r.Contains(Point{150, 301}) {
		t.Fatal("outside point contained")
	}
	got := r.Clamp(Point{-10, 500})
	if got != (Point{0, 300}) {
		t.Fatalf("Clamp = %v, want {0 300}", got)
	}
}

// TestClampMatchesMathMinMax: Clamp, on the builtin min and max, returns
// bit for bit what math.Max(0, math.Min(side, v)) returns on each axis —
// signed zeros, infinities, subnormals and values one ulp either side of the
// rectangle's edges included — and a NaN wherever that returns one. The spec
// makes the builtins' result NaN, not which NaN: math.Min returns the
// canonical one, and amd64's min ORs its operands' bits (min(300, NaN) is
// 0x7ffac00000000001). The sides are a rectangle's, never NaN: with a NaN
// side the two part ways on a −Inf coordinate, as math.Min(NaN, −Inf) is
// −Inf and the builtin's NaN.
func TestClampMatchesMathMinMax(t *testing.T) {
	t.Parallel()
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	values := []float64{
		0, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
		tiny, -tiny, 0x1p-1023, -0x1p-1023,
		1, -1, 300, math.Nextafter(300, 0), math.Nextafter(300, 400), -300,
		math.MaxFloat64, -math.MaxFloat64,
	}
	sides := []float64{0, negZero, tiny, 300, -300, math.MaxFloat64, math.Inf(1)}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, w := range sides {
		for _, h := range sides {
			r := Rect{Width: w, Height: h}
			for _, x := range values {
				for _, y := range values {
					got := r.Clamp(Point{X: x, Y: y})
					wantX, wantY := math.Max(0, math.Min(w, x)), math.Max(0, math.Min(h, y))
					if !same(got.X, wantX) || !same(got.Y, wantY) {
						t.Fatalf("Rect{%v %v}.Clamp(%v, %v) = (%v, %v), want (%v, %v)", w, h, x, y, got.X, got.Y, wantX, wantY)
					}
				}
			}
		}
	}
}

func TestStationary(t *testing.T) {
	t.Parallel()
	s := Stationary{At: Point{5, 7}}
	for _, d := range []time.Duration{0, time.Second, time.Hour} {
		if l := s.LegAt(d); l.At(d) != (Point{5, 7}) {
			t.Fatal("stationary node moved")
		}
	}
}

func TestRandomDirectionStaysInArea(t *testing.T) {
	t.Parallel()
	area := Rect{Width: 300, Height: 300}
	w := NewRandomDirection(RandomDirectionConfig{
		Area:  area,
		Start: Point{150, 150},
		RNG:   rand.New(rand.NewSource(9)),
	})
	for s := 0; s <= 600; s++ {
		p := w.PositionAt(time.Duration(s) * time.Second)
		if !area.Contains(p) {
			t.Fatalf("position %v at t=%ds escaped area", p, s)
		}
	}
}

func TestRandomDirectionSpeedBounds(t *testing.T) {
	t.Parallel()
	area := Rect{Width: 300, Height: 300}
	w := NewRandomDirection(RandomDirectionConfig{
		Area:  area,
		Start: Point{150, 150},
		RNG:   rand.New(rand.NewSource(4)),
	})
	const step = 100 * time.Millisecond
	prev := w.PositionAt(0)
	for t0 := step; t0 <= 5*time.Minute; t0 += step {
		cur := w.PositionAt(t0)
		speed := prev.Distance(cur) / step.Seconds()
		// Speed may briefly appear slower around a bounce within a step, but
		// never faster than the paper's 10 m/s.
		if speed > 10+1e-6 {
			t.Fatalf("observed speed %.2f m/s exceeds max at t=%v", speed, t0)
		}
		prev = cur
	}
}

func TestRandomDirectionDeterminism(t *testing.T) {
	t.Parallel()
	mk := func() *RandomDirection {
		return NewRandomDirection(RandomDirectionConfig{
			Area:  Rect{Width: 300, Height: 300},
			Start: Point{10, 20},
			RNG:   rand.New(rand.NewSource(77)),
		})
	}
	a, b := mk(), mk()
	for s := 0; s < 200; s++ {
		ta := time.Duration(s) * time.Second
		if a.PositionAt(ta) != b.PositionAt(ta) {
			t.Fatalf("walk diverged at %v", ta)
		}
	}
}

// TestRandomDirectionInitWalksAsNew: a walker built in place in a slice,
// over one that has walked before, draws the same legs from the same stream
// as NewRandomDirection's, well past the legs it holds inline.
func TestRandomDirectionInitWalksAsNew(t *testing.T) {
	t.Parallel()
	cfg := func() RandomDirectionConfig {
		return RandomDirectionConfig{
			Area: Rect{Width: 120, Height: 80}, Start: Point{30, 70},
			RNG: rand.New(rand.NewSource(31)),
		}
	}
	want := NewRandomDirection(cfg())
	walks := make([]RandomDirection, 2)
	got := &walks[1]
	got.Init(RandomDirectionConfig{Area: Rect{Width: 50, Height: 50}, RNG: rand.New(rand.NewSource(1))})
	got.PositionAt(time.Hour)
	got.Init(cfg())
	const legs = 60
	var ends []time.Duration
	for at := time.Duration(0); len(ends) < legs; {
		g, w := got.LegAt(at), want.LegAt(at)
		if g != w {
			t.Fatalf("leg %d at %v: built in place %+v, new %+v", len(ends), at, g, w)
		}
		for _, u := range []time.Duration{w.Start, (w.Start + w.End) / 2, w.End} {
			if p, q := got.PositionAt(u), want.PositionAt(u); p != q {
				t.Fatalf("leg %d at %v: built in place at %v, new at %v", len(ends), u, p, q)
			}
		}
		ends = append(ends, w.End)
		at = w.End + 1
	}
	// Backwards, as a random-access query lands.
	for i := legs - 1; i >= 0; i-- {
		if g, w := got.LegAt(ends[i]), want.LegAt(ends[i]); g != w {
			t.Fatalf("leg ending %v, asked again: built in place %+v, new %+v", ends[i], g, w)
		}
	}
	if len(got.legs) <= len(got.first) {
		t.Fatalf("%d legs drawn: the walk never left its inline legs", len(got.legs))
	}
}

func TestRandomDirectionMonotoneQueriesMatchRandomAccess(t *testing.T) {
	t.Parallel()
	// Querying out of order must give the same answers as in order, since
	// legs extend lazily.
	w1 := NewRandomDirection(RandomDirectionConfig{
		Area: Rect{Width: 100, Height: 100}, Start: Point{50, 50},
		RNG: rand.New(rand.NewSource(5)),
	})
	w2 := NewRandomDirection(RandomDirectionConfig{
		Area: Rect{Width: 100, Height: 100}, Start: Point{50, 50},
		RNG: rand.New(rand.NewSource(5)),
	})
	// w1: query far future first, then earlier times.
	far := w1.PositionAt(300 * time.Second)
	early := w1.PositionAt(10 * time.Second)
	// w2: in order.
	early2 := w2.PositionAt(10 * time.Second)
	far2 := w2.PositionAt(300 * time.Second)
	if early != early2 || far != far2 {
		t.Fatalf("out-of-order queries diverged: %v/%v vs %v/%v", early, far, early2, far2)
	}
}

func TestScriptedInterpolation(t *testing.T) {
	t.Parallel()
	s := NewScripted([]Waypoint{
		{At: 0, Pos: Point{0, 0}},
		{At: 10 * time.Second, Pos: Point{100, 0}},
		{At: 20 * time.Second, Pos: Point{100, 50}},
	})
	tests := []struct {
		at   time.Duration
		want Point
	}{
		{0, Point{0, 0}},
		{5 * time.Second, Point{50, 0}},
		{10 * time.Second, Point{100, 0}},
		{15 * time.Second, Point{100, 25}},
		{20 * time.Second, Point{100, 50}},
		{time.Hour, Point{100, 50}},
		{-time.Second, Point{0, 0}},
	}
	for _, tt := range tests {
		got := s.PositionAt(tt.at)
		if math.Abs(got.X-tt.want.X) > 1e-9 || math.Abs(got.Y-tt.want.Y) > 1e-9 {
			t.Fatalf("PositionAt(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestScriptedEmpty(t *testing.T) {
	t.Parallel()
	s := NewScripted(nil)
	if s.PositionAt(time.Second) != (Point{}) {
		t.Fatal("empty script should return origin")
	}
}

func TestScriptedDuplicateTimestamps(t *testing.T) {
	t.Parallel()
	// Two waypoints at one instant in one place: a zero-span segment, which
	// must not divide by zero.
	s := NewScripted([]Waypoint{
		{At: 0, Pos: Point{0, 0}},
		{At: 10 * time.Second, Pos: Point{1, 1}},
		{At: 10 * time.Second, Pos: Point{1, 1}},
		{At: 20 * time.Second, Pos: Point{2, 2}},
	})
	if got := s.PositionAt(10 * time.Second); got != (Point{1, 1}) {
		t.Fatalf("PositionAt(10s) = %v", got)
	}
	if got := s.PositionAt(15 * time.Second); got != (Point{1.5, 1.5}) {
		t.Fatalf("PositionAt(15s) = %v", got)
	}
	if v := s.MaxSpeed(); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("MaxSpeed = %v, want a finite bound", v)
	}
}

// TestScriptedPanicsOnTeleport: a path with two waypoints at one instant in
// two places, or one elsewhere at an earlier instant, has no finite speed
// bound, and NewScripted refuses it.
func TestScriptedPanicsOnTeleport(t *testing.T) {
	t.Parallel()
	for name, pts := range map[string][]Waypoint{
		"same instant": {{At: time.Second, Pos: Point{0, 0}}, {At: time.Second, Pos: Point{5, 0}}},
		"out of order": {{At: 0, Pos: Point{0, 0}}, {At: 2 * time.Second, Pos: Point{3, 0}}, {At: time.Second, Pos: Point{9, 0}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewScripted returned a model with speed bound %v", name, NewScripted(pts).MaxSpeed())
				}
			}()
			NewScripted(pts)
		}()
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	t.Parallel()
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		d1, d2 := a.Distance(b), b.Distance(a)
		return d1 == d2 && (d1 >= 0 || math.IsInf(d1, 1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
