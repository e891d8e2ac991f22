package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// listWorld is one neighbour-list case: setup attaches the world's radios
// and schedules anything it does mid-run (more attaches, enable toggles) on
// the medium it is handed, and probes are the instants at which every radio
// asks for its neighbours.
type listWorld struct {
	name   string
	rangeM float64
	setup  func(k *sim.Kernel, m *Medium)
	probes []time.Duration
	// lists says whether the grid must answer some probes from a list.
	lists bool
}

// runListWorld runs w on one index and returns every probe's answers, radio
// by radio, and how many lookups a valid neighbour list answered.
func runListWorld(w listWorld, mode IndexMode) (answers []string, fromList int) {
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: w.rangeM, Index: mode})
	w.setup(k, m)
	for _, at := range w.probes {
		k.ScheduleFuncAt(at, func() {
			now := k.Now()
			for _, r := range m.Radios() {
				if l := r.list; m.grid != nil && l != nil && l.attached == len(m.radios) && m.inWindow(l.at, now) {
					fromList++
				}
				answers = append(answers, fmt.Sprintf("at %v radio %d: %v", now, r.id, m.Neighbors(r)))
			}
		})
	}
	if err := k.Run(0); err != nil {
		panic(err)
	}
	return answers, fromList
}

// headOn attaches a sender walking +x from the origin and walkers on its
// line, all at exactly speed m/s and all parked until start: some coming
// towards it from d each (closing at twice the speed), some going away from
// it. At start the sender has just looked (the probes begin start−1ms), so
// the list it builds then sees each walker at its d.
func headOn(k *sim.Kernel, m *Medium, start time.Duration, speed float64, toward, away []float64) {
	const span = 20 * time.Second
	travel := speed * span.Seconds()
	walk := func(from, to geo.Point) {
		m.Attach(geo.NewScripted([]geo.Waypoint{{At: 0, Pos: from}, {At: start, Pos: from}, {At: start + span, Pos: to}}))
	}
	walk(geo.Point{}, geo.Point{X: travel})
	for _, d := range toward {
		walk(geo.Point{X: d}, geo.Point{X: d - travel})
	}
	for _, d := range away {
		walk(geo.Point{X: -d}, geo.Point{X: -d - travel})
	}
}

// probesAcross returns first−1ms, then first and every step after it up to
// last.
func probesAcross(first, last, step time.Duration) []time.Duration {
	out := []time.Duration{first - time.Millisecond}
	for at := first; at <= last; at += step {
		out = append(out, at)
	}
	return out
}

// TestNeighbourListMatchesNaive: a sender answering from its neighbour list
// finds exactly what the naive scan finds, in the same order — walkers
// closing head-on at the speed bound from just outside the list's radius and
// probed across its whole validity window and one probe past it; walkers
// receding from inside Range; a radio attached, and one switched off and on,
// while lists are live; a world that never moves; and random-direction
// worlds at the paper's ranges.
func TestNeighbourListMatchesNaive(t *testing.T) {
	t.Parallel()
	const (
		r     = 50.0
		speed = 5.0
		start = time.Second
	)
	wide := r * (1 + 2*skin)
	window := time.Duration(skin * r / speed * float64(time.Second)) // 1.25 s
	step := window / 64
	// From just outside the list's radius — out of range until the window
	// has passed — and from inside it, across Range.
	toward := []float64{wide + 1e-9, wide + 1e-3, math.Nextafter(wide, 100), wide, r + 3, r + 0.5, r}
	away := []float64{r - 3, r - 0.5, r, 1}
	cases := []listWorld{{
		name: "head-on", rangeM: r, lists: true,
		setup:  func(k *sim.Kernel, m *Medium) { headOn(k, m, start, speed, toward, away) },
		probes: probesAcross(start, start+2*window+step, step),
	}, {
		name: "attached mid-window", rangeM: r, lists: true,
		setup: func(k *sim.Kernel, m *Medium) {
			headOn(k, m, start, speed, toward, away)
			k.ScheduleFuncAt(start+window/2+1, func() {
				m.Attach(geo.Stationary{At: geo.Point{X: 20, Y: 10}})
				m.Attach(geo.Stationary{At: geo.Point{X: r, Y: 0}})
			})
		},
		probes: probesAcross(start, start+window, step),
	}, {
		name: "disabled and enabled", rangeM: r, lists: true,
		setup: func(k *sim.Kernel, m *Medium) {
			headOn(k, m, start, speed, toward, away)
			for i, at := range []time.Duration{window / 5, window / 3, window / 2, window * 3 / 4} {
				k.ScheduleFuncAt(start+at+1, func() {
					m.Radios()[len(toward)+1].SetEnabled(i%2 == 1)
					m.Radios()[len(toward)+len(away)].SetEnabled(i%2 == 1)
				})
			}
		},
		probes: probesAcross(start, start+window, step),
	}, {
		name: "stationary", rangeM: r, lists: true,
		setup: func(k *sim.Kernel, m *Medium) {
			for _, d := range []float64{r, math.Nextafter(r, 100), math.Nextafter(r, 0), wide, math.Nextafter(wide, 100), 1, 70} {
				m.Attach(geo.Stationary{At: geo.Point{X: d}})
				m.Attach(geo.Stationary{At: geo.Point{Y: -d}})
			}
			m.Attach(geo.Stationary{At: geo.Point{X: 30, Y: 40}})
			k.ScheduleFuncAt(time.Hour+1, func() { m.Attach(geo.Stationary{At: geo.Point{X: -40, Y: 30}}) })
		},
		probes: []time.Duration{0, time.Second, time.Hour, time.Hour + 2, 100 * time.Hour},
	}}
	for _, rangeM := range []float64{20, 60, 100} {
		for seed := int64(1); seed <= 3; seed++ {
			var probes []time.Duration
			pick := rand.New(rand.NewSource(seed))
			for burst := 0; burst < 20; burst++ {
				at := time.Duration(pick.Int63n(int64(5 * time.Minute)))
				for i := 0; i < 6; i++ {
					probes = append(probes, at)
					at += time.Duration(pick.Int63n(int64(400 * time.Millisecond)))
				}
			}
			cases = append(cases, listWorld{
				name: fmt.Sprintf("random-direction range %v seed %d", rangeM, seed), rangeM: rangeM, lists: true,
				setup: func(k *sim.Kernel, m *Medium) {
					place := rand.New(rand.NewSource(seed * 31))
					area := geo.Rect{Width: 300, Height: 300}
					for i := 0; i < 45; i++ {
						at := geo.Point{X: place.Float64() * 300, Y: place.Float64() * 300}
						if i%9 == 0 {
							m.Attach(geo.Stationary{At: at})
							continue
						}
						m.Attach(geo.NewRandomDirection(geo.RandomDirectionConfig{Area: area, Start: at, RNG: rand.New(rand.NewSource(seed*1000 + int64(i)))}))
					}
				},
				probes: probes,
			})
		}
	}
	for _, w := range cases {
		naive, _ := runListWorld(w, IndexNaive)
		grid, fromList := runListWorld(w, IndexGrid)
		if len(naive) != len(grid) {
			t.Fatalf("%s: %d answers on the scan, %d on the grid", w.name, len(naive), len(grid))
		}
		for i := range naive {
			if naive[i] != grid[i] {
				t.Fatalf("%s: naive %s, grid %s", w.name, naive[i], grid[i])
			}
		}
		if w.lists != (fromList > 0) {
			t.Fatalf("%s: %d lookups answered from a list, want lists=%v", w.name, fromList, w.lists)
		}
	}
}

// TestRepeatSenderLookupDoesNotAllocate pins a warm neighbour list's lookup
// at zero objects: a sender that has looked twice answers its next lookups,
// later in the drift window, from its list.
func TestRepeatSenderLookupDoesNotAllocate(t *testing.T) {
	k, m := benchWorld(200, IndexGrid, 60)
	radios := m.Radios()
	for range 2 {
		for _, r := range radios {
			m.candidatesInRange(r)
		}
	}
	ran := false
	k.ScheduleFuncAt(200*time.Millisecond, func() {
		ran = true
		now := k.Now()
		for _, r := range radios {
			if l := r.list; l == nil || l.attached != len(m.radios) || !m.inWindow(l.at, now) {
				t.Fatalf("radio %d holds no valid list at %v", r.id, now)
			}
		}
		heard := 0
		avg := testing.AllocsPerRun(20, func() {
			for _, r := range radios {
				heard += len(m.candidatesInRange(r))
			}
		})
		if avg != 0 {
			t.Errorf("a lookup round from warm lists allocates %.2f objects, want 0", avg)
		}
		if heard == 0 {
			t.Error("no radio had a neighbour: the world is degenerate")
		}
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("the probe never ran")
	}
}
