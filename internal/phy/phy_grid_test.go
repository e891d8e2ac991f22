package phy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// TestTxWindowsStayBounded is the regression test for the unbounded
// txWindows growth bug: a radio that only ever transmits (no receptions to
// trigger receiver-side pruning) must prune its own expired windows on every
// send rather than accumulating one per broadcast forever.
func TestTxWindowsStayBounded(t *testing.T) {
	t.Parallel()
	for _, mode := range []IndexMode{IndexNaive, IndexGrid} {
		k := sim.NewKernel(1)
		m := NewMedium(k, Config{Range: 50, Index: mode})
		// Alone on the medium: nothing ever transmits to it.
		a := m.Attach(geo.Stationary{At: geo.Point{}})

		const sends = 10000
		payload := make([]byte, 100)
		gap := m.TxDuration(len(payload)) + time.Millisecond
		maxLen := 0
		for i := 0; i < sends; i++ {
			k.ScheduleFuncAt(time.Duration(i)*gap, func() {
				m.Broadcast(a, payload)
				if len(a.txWindows) > maxLen {
					maxLen = len(a.txWindows)
				}
			})
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if a.Sent != sends {
			t.Fatalf("mode %d: Sent = %d, want %d", mode, a.Sent, sends)
		}
		// Sends are spaced past their own airtime, so at most the current
		// window (plus possibly the immediately preceding one) may be live.
		if maxLen > 2 {
			t.Fatalf("mode %d: txWindows grew to %d entries over %d sends, want <= 2",
				mode, maxLen, sends)
		}
	}
}

// traceWorld drives one randomized workload — mixed mobility, loss,
// overlapping broadcasts, sender-side notify — and records everything
// observable: every delivery (receiver, sender, time, first payload byte),
// every notify outcome, the final Stats, and per-radio counters.
type traceResult struct {
	Deliveries []string
	Notifies   []string
	Stats      Stats
	Sent       []uint64
	Received   []uint64
	Neighbors  [][]int
}

func runTrace(mode IndexMode, seed int64) traceResult {
	k := sim.NewKernel(seed)
	m := NewMedium(k, Config{Range: 60, LossRate: 0.2, Index: mode})
	area := geo.Rect{Width: 400, Height: 400}
	prng := rand.New(rand.NewSource(seed * 13))

	const n = 30
	for i := 0; i < n; i++ {
		var mob geo.Mobility
		switch i % 3 {
		case 0:
			mob = geo.Stationary{At: geo.Point{X: prng.Float64() * 400, Y: prng.Float64() * 400}}
		case 1:
			mob = geo.NewRandomDirection(geo.RandomDirectionConfig{
				Area:  area,
				Start: geo.Point{X: prng.Float64() * 400, Y: prng.Float64() * 400},
				RNG:   rand.New(rand.NewSource(prng.Int63())),
			})
		default:
			start := geo.Point{X: prng.Float64() * 400, Y: prng.Float64() * 400}
			mob = geo.NewScripted([]geo.Waypoint{
				{At: 0, Pos: start},
				{At: 2 * time.Minute, Pos: geo.Point{X: prng.Float64() * 400, Y: prng.Float64() * 400}},
				{At: 4 * time.Minute, Pos: start},
			})
		}
		m.Attach(mob)
	}

	var res traceResult
	radios := m.Radios()
	for _, r := range radios {
		r := r
		r.SetHandler(func(f Frame) {
			res.Deliveries = append(res.Deliveries,
				fmt.Sprintf("%v %d->%d %d", k.Now(), f.From, r.ID(), f.Payload[0]))
		})
	}
	// One radio churns on and off to exercise the enabled filter.
	churn, on := radios[4], true
	for s := 10 * time.Second; s < 4*time.Minute; s += 20 * time.Second {
		k.ScheduleFuncAt(s, func() { on = !on; churn.SetEnabled(on) })
	}

	for i := 0; i < 600; i++ {
		at := time.Duration(prng.Int63n(int64(4 * time.Minute)))
		sender := radios[prng.Intn(n)]
		payload := []byte{byte(i), byte(i >> 8), 0, 0}
		if i%4 == 0 {
			i := i
			k.ScheduleFuncAt(at, func() {
				m.BroadcastNotify(sender, payload, func(collided bool) {
					res.Notifies = append(res.Notifies,
						fmt.Sprintf("%v tx%d from=%d collided=%v", k.Now(), i, sender.ID(), collided))
				})
			})
		} else {
			k.ScheduleFuncAt(at, func() { m.Broadcast(sender, payload) })
		}
		if i%50 == 0 {
			k.ScheduleFuncAt(at, func() {
				res.Neighbors = append(res.Neighbors, m.Neighbors(sender))
			})
		}
	}
	if err := k.Run(0); err != nil {
		panic(err)
	}
	res.collect(m)
	return res
}

// collect records the medium's counters and every radio's at the end of a run.
func (res *traceResult) collect(m *Medium) {
	res.Stats = m.Stats()
	for _, r := range m.Radios() {
		res.Sent = append(res.Sent, r.Sent)
		res.Received = append(res.Received, r.Received)
	}
}

// TestGridMatchesNaiveTrace is the phy-level golden-trace check: the grid
// index must reproduce the naive scan's full observable behavior — every
// delivery at the same virtual time in the same order, every notify
// verdict, every stat counter — across randomized workloads with mixed
// mobility, loss, collisions, and churn.
func TestGridMatchesNaiveTrace(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		naive := runTrace(IndexNaive, seed)
		grid := runTrace(IndexGrid, seed)
		if naive.Stats != grid.Stats {
			t.Fatalf("seed %d: stats diverged\nnaive: %+v\ngrid:  %+v", seed, naive.Stats, grid.Stats)
		}
		if !reflect.DeepEqual(naive, grid) {
			for i := range naive.Deliveries {
				if i >= len(grid.Deliveries) || naive.Deliveries[i] != grid.Deliveries[i] {
					t.Fatalf("seed %d: delivery %d diverged: naive=%q grid=%q",
						seed, i, naive.Deliveries[i], grid.Deliveries[safeIdx(i, len(grid.Deliveries))])
				}
			}
			t.Fatalf("seed %d: traces diverged beyond deliveries\nnaive: %+v\ngrid:  %+v",
				seed, naive, grid)
		}
		if naive.Stats.Deliveries == 0 {
			t.Fatalf("seed %d: degenerate trace delivered nothing", seed)
		}
	}
}

func safeIdx(i, n int) int {
	if i >= n {
		return n - 1
	}
	return i
}

// TestNeighborsGridMatchesNaive pins the documented ID ordering on both
// implementations, including radios sitting exactly on the range boundary.
func TestNeighborsGridMatchesNaive(t *testing.T) {
	t.Parallel()
	build := func(mode IndexMode) *Medium {
		m := NewMedium(sim.NewKernel(1), Config{Range: 50, Index: mode})
		m.Attach(geo.Stationary{At: geo.Point{X: 0, Y: 0}})
		m.Attach(geo.Stationary{At: geo.Point{X: 50, Y: 0}})   // exactly on the boundary
		m.Attach(geo.Stationary{At: geo.Point{X: 50.1, Y: 0}}) // just past it
		m.Attach(geo.Stationary{At: geo.Point{X: -30, Y: 0}})
		return m
	}
	naive, grid := build(IndexNaive), build(IndexGrid)
	for i := range naive.Radios() {
		a := naive.Neighbors(naive.Radios()[i])
		b := grid.Neighbors(grid.Radios()[i])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Neighbors(%d): naive=%v grid=%v", i, a, b)
		}
	}
	if got := grid.Neighbors(grid.Radios()[0]); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Neighbors(0) = %v, want [1 3] (boundary inclusive, ID order)", got)
	}
}

// TestConfigIndex checks a medium is built on the index its Config names
// and reports it back: the zero Config gets the grid, IndexNaive gets none.
func TestConfigIndex(t *testing.T) {
	m := NewMedium(sim.NewKernel(1), Config{})
	if m.Config().Index != IndexGrid || m.grid == nil {
		t.Fatal("the zero Config did not construct a grid index")
	}
	m = NewMedium(sim.NewKernel(1), Config{Index: IndexNaive})
	if m.Config().Index != IndexNaive || m.grid != nil {
		t.Fatal("IndexNaive still built a grid")
	}
}

// runDriftBoundary drives the cases the grid's stored-position filter could
// get wrong and the naive scan cannot: receivers at exactly Range and one ulp
// either side of it, queried when the stored positions are exact (a
// stationary world: drift 0) and when they are stale by exactly the slack —
// the last instant before a re-sync, where an in-range radio is stored at
// exactly Range + drift — with radios attached mid-run (stored at their own
// attach time, after the sync) and a walker four times faster attached after
// the first sync (every bound widens at once). syncs is the medium's lastSync
// as each probe saw it.
func runDriftBoundary(mode IndexMode, mobile bool) (res traceResult, syncs []time.Duration) {
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: 50, Index: mode})
	attach := func(mob geo.Mobility) *Radio {
		r := m.Attach(mob)
		r.SetHandler(func(f Frame) {
			res.Deliveries = append(res.Deliveries,
				fmt.Sprintf("%v %d->%d %d", k.Now(), f.From, r.ID(), f.Payload[0]))
		})
		return r
	}
	still := func(x, y float64) { attach(geo.Stationary{At: geo.Point{X: x, Y: y}}) }
	// walk is a straight run between two points over [t0, t1], parked at
	// either end outside it.
	walk := func(t0, t1 time.Duration, from, to geo.Point) {
		attach(geo.NewScripted([]geo.Waypoint{{At: t0, Pos: from}, {At: t1, Pos: to}}))
	}
	edges := []float64{50, math.Nextafter(50, 100), math.Nextafter(50, 0)}

	sender := attach(geo.Stationary{})
	for _, e := range edges {
		still(e, 0)
		still(-e, 0)
		still(0, e)
	}
	still(30, 40) // 3-4-5: exactly 50 off the axes
	still(-40, -30)
	still(30, math.Nextafter(40, 100))
	if mobile {
		// 5 m/s inbound — never an ulp more, 5 is the bound the medium must
		// see: 25 m = the slack in 5 s, ending on the edge.
		walk(0, 5*time.Second, geo.Point{X: 75}, geo.Point{X: edges[0]})
		walk(0, 5*time.Second, geo.Point{X: 75}, geo.Point{X: edges[1]})
		walk(0, 5*time.Second, geo.Point{X: math.Nextafter(75, 0)}, geo.Point{X: edges[2]})
		walk(0, 5*time.Second, geo.Point{X: -45, Y: -60}, geo.Point{X: -30, Y: -40})
		// Outbound: stored in range, truly out of it.
		walk(0, 5*time.Second, geo.Point{Y: -40}, geo.Point{Y: -65})
		// Moving while the fast walker's bound applies.
		walk(7*time.Second, 8500*time.Millisecond, geo.Point{X: -57.5}, geo.Point{X: -50})
	}

	probe := func() {
		for _, r := range m.Radios() {
			res.Neighbors = append(res.Neighbors, m.Neighbors(r))
		}
		m.Broadcast(sender, []byte{byte(len(res.Neighbors))})
		m.Broadcast(m.Radios()[1], []byte{byte(len(res.Neighbors))})
		syncs = append(syncs, m.lastSync)
	}
	for _, at := range []time.Duration{
		0,
		2 * time.Second,
		5 * time.Second,   // 5 m/s · 5 s = slack exactly: no re-sync yet
		5*time.Second + 1, // the first re-sync
		6 * time.Second,
		7250 * time.Millisecond, // re-sync under the fast walker's bound
		8500 * time.Millisecond, // 20 m/s · 1.25 s = slack exactly
		100 * time.Second,
	} {
		k.ScheduleFuncAt(at, probe)
	}
	// Attached mid-run, before the 2 s probe.
	k.ScheduleFuncAt(time.Second, func() {
		still(0, -50)
		still(0, -math.Nextafter(50, 100))
		if mobile {
			walk(2*time.Second, 5*time.Second, geo.Point{X: 39, Y: 52}, geo.Point{X: 30, Y: 40})
		}
	})
	if mobile {
		k.ScheduleFuncAt(7*time.Second, func() {
			// 20 m/s: 30 m in 1.5 s, on the edge when the 8.5 s probe looks.
			walk(7*time.Second, 8500*time.Millisecond, geo.Point{Y: -80}, geo.Point{Y: -50})
		})
	}
	if err := k.Run(0); err != nil {
		panic(err)
	}
	res.collect(m)
	return res, syncs
}

// TestGridMatchesNaiveAtDriftBoundary: the grid answers from stored positions
// widened by the drift accrued since they were stored; on the boundary of
// that bound it must still find exactly what the scan finds.
func TestGridMatchesNaiveAtDriftBoundary(t *testing.T) {
	t.Parallel()
	for _, mobile := range []bool{false, true} {
		naive, _ := runDriftBoundary(IndexNaive, mobile)
		grid, syncs := runDriftBoundary(IndexGrid, mobile)
		// The probes that say "slack exactly" looked at positions stored a
		// whole slack ago: the re-sync came one probe later.
		const s = time.Second
		wantSyncs := []time.Duration{0, 0, 0, 5*s + 1, 5*s + 1, 7250 * time.Millisecond, 7250 * time.Millisecond, 100 * s}
		if !mobile {
			wantSyncs = make([]time.Duration, 8)
		}
		if !reflect.DeepEqual(syncs, wantSyncs) {
			t.Fatalf("mobile=%v: the grid synced at %v, want %v", mobile, syncs, wantSyncs)
		}
		if !reflect.DeepEqual(naive, grid) {
			for i := range naive.Neighbors {
				if !reflect.DeepEqual(naive.Neighbors[i], grid.Neighbors[i]) {
					t.Fatalf("mobile=%v: Neighbors query %d: naive=%v grid=%v", mobile, i, naive.Neighbors[i], grid.Neighbors[i])
				}
			}
			t.Fatalf("mobile=%v: traces diverged\nnaive: %+v\ngrid:  %+v", mobile, naive, grid)
		}
		// The sender's first answer: the edge is inclusive, one ulp past it
		// is out (ids 1-9 are the three axes at 50, 50+ulp, 50-ulp).
		if got, want := naive.Neighbors[0][:8], []int{1, 2, 3, 7, 8, 9, 10, 11}; !reflect.DeepEqual(got, want) {
			t.Fatalf("mobile=%v: the sender's neighbours at t=0 = %v, want %v", mobile, got, want)
		}
		if naive.Stats.Deliveries == 0 {
			t.Fatalf("mobile=%v: degenerate trace delivered nothing", mobile)
		}
	}
}

// jumpy is a mobility model with no speed bound (not a geo.Speeder): it
// jumps to a new point every 300 ms.
type jumpy struct{ seed float64 }

func (j jumpy) PositionAt(t time.Duration) geo.Point {
	step := float64(t / (300 * time.Millisecond))
	return geo.Point{X: math.Mod(j.seed*step*37, 100), Y: math.Mod(j.seed*step*61, 100)}
}

// TestPositionMatchesMobility: a radio's position is its mobility model's
// PositionAt at every instant the medium is asked, bit for bit — inside a
// leg, at the instant one leg ends and the next begins, a nanosecond later,
// after a long silence — whether the radio holds whole legs (random-direction
// walkers, a stationary radio) or one-instant ones (a scripted path, models
// with no speed bound); and the grid's neighbours are those of the models'
// positions, unbounded radios included.
func TestPositionMatchesMobility(t *testing.T) {
	t.Parallel()
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{Range: 40})
	walker := func(seed int64) *geo.RandomDirection {
		return geo.NewRandomDirection(geo.RandomDirectionConfig{Area: geo.Rect{Width: 100, Height: 100},
			Start: geo.Point{X: 50, Y: 50}, RNG: rand.New(rand.NewSource(seed))})
	}
	scripted := geo.NewScripted([]geo.Waypoint{{At: 0, Pos: geo.Point{X: -10}}, {At: time.Minute, Pos: geo.Point{X: 110, Y: 90}}})
	models := []geo.Mobility{walker(1), walker(2), walker(3), geo.Stationary{At: geo.Point{X: -5, Y: 30}}, scripted, jumpy{1.5}, jumpy{2.7}}
	refs := []geo.Mobility{walker(1), walker(2), walker(3), models[3], scripted, models[5], models[6]}
	var radios []*Radio
	for _, mob := range models {
		radios = append(radios, m.Attach(mob))
	}

	// Every leg boundary of the first walker and a nanosecond past it, plus
	// random instants, over two minutes with a silence in the middle.
	var times []time.Duration
	first := walker(1)
	for at := time.Duration(0); at < 2*time.Minute; {
		l := first.LegAt(at)
		times = append(times, l.End, l.End+1)
		at = l.End + 1
	}
	pick := rand.New(rand.NewSource(5))
	for range 200 {
		if at := time.Duration(pick.Int63n(int64(2 * time.Minute))); at < 40*time.Second || at > 80*time.Second {
			times = append(times, at)
		}
	}
	probes := 0
	for _, at := range times {
		k.ScheduleFuncAt(at, func() {
			probes++
			now := k.Now()
			// Neighbours first: the medium must bring the grid up to date
			// itself, before anything has asked a radio where it is.
			for i, r := range radios {
				var want []int
				for j := range radios {
					if j != i && refs[i].PositionAt(now).Distance(refs[j].PositionAt(now)) <= 40 {
						want = append(want, j)
					}
				}
				if got := m.Neighbors(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("radio %d at %v: neighbours %v, want %v", i, now, got, want)
				}
			}
			for i, r := range radios {
				if got, want := r.Position(), refs[i].PositionAt(now); math.Float64bits(got.X) != math.Float64bits(want.X) || math.Float64bits(got.Y) != math.Float64bits(want.Y) {
					t.Fatalf("radio %d at %v: Position %v, model %v", i, now, got, want)
				}
			}
		})
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if probes != len(times) || probes < 20 {
		t.Fatalf("%d probes ran of %d scheduled", probes, len(times))
	}
}
