package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dapes/internal/bitmap"
	"dapes/internal/core"
	"dapes/internal/geo"
	"dapes/internal/metadata"
	"dapes/internal/ndn"
	"dapes/internal/nfd"
	"dapes/internal/peba"
	"dapes/internal/phy"
	"dapes/internal/rpf"
	"dapes/internal/sim"
)

// layerProbe times one public function of one layer on a fixed input, from
// outside the layer. prepare builds the input for n operations and returns
// the body that performs them; only the body is timed.
type layerProbe struct {
	time    string  // metric for time per operation
	perOp   float64 // unit of that metric, in nanoseconds (1 for ns, 1e6 for ms)
	allocs  string  // metric for heap objects per operation, "" to leave it out
	prepare func(n int) func()
}

const (
	// Each probe runs probeRuns times for at least probeMinTime and keeps
	// its best run: about 6 s for the whole list.
	probeMinTime = 50 * time.Millisecond
	probeRuns    = 3
	probeMaxN    = 100_000_000
)

// sink keeps the compiler from discarding a probe's result.
var sink int

func timeProbe(body func()) (elapsed time.Duration, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	body()
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&after)
	return elapsed, after.Mallocs - before.Mallocs
}

// run grows n until one run lasts probeMinTime, then reports the best
// time and the fewest allocations per operation over probeRuns runs.
func (p layerProbe) run() (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		elapsed, _ := timeProbe(p.prepare(n))
		if elapsed >= probeMinTime || n >= probeMaxN {
			break
		}
		// Aim a fifth past the target, growing at most 100x a step.
		next := float64(n) * 100
		if elapsed > 0 {
			next = math.Min(next, 1.2*float64(n)*float64(probeMinTime)/float64(elapsed))
		}
		n = min(max(n+1, int(next)), probeMaxN)
	}
	nsPerOp, allocsPerOp = math.Inf(1), math.Inf(1)
	for i := 0; i < probeRuns; i++ {
		elapsed, mallocs := timeProbe(p.prepare(n))
		nsPerOp = math.Min(nsPerOp, float64(elapsed.Nanoseconds())/float64(n))
		allocsPerOp = math.Min(allocsPerOp, float64(mallocs)/float64(n))
	}
	return nsPerOp, allocsPerOp
}

// runProbes writes every layer probe's metrics into out.
func runProbes(out map[string]float64) {
	for _, p := range layerProbes {
		ns, allocs := p.run()
		out[p.time] = ns / p.perOp
		if p.allocs != "" {
			out[p.allocs] = allocs
		}
	}
}

func probeNames() []string {
	var names []string
	for _, p := range layerProbes {
		names = append(names, p.time)
		if p.allocs != "" {
			names = append(names, p.allocs)
		}
	}
	return names
}

// denseMedium is N=1000 walkers at constant density on the grid-indexed
// medium, range 60 m: about 11 radios hear each broadcast.
func denseMedium() (*sim.Kernel, *phy.Medium) {
	const n = 1000
	k := sim.NewKernel(42)
	m := phy.NewMedium(k, phy.Config{Range: 60})
	side := math.Sqrt(n) * 45
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		m.Attach(geo.NewRandomDirection(geo.RandomDirectionConfig{
			Area:  geo.Rect{Width: side, Height: side},
			Start: geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
			RNG:   rng,
		}))
	}
	return k, m
}

func packetData() *ndn.Data {
	d := &ndn.Data{Name: ndn.ParseName("/field-report/image-000/17"), Content: make([]byte, 1000)}
	d.SignDigest()
	return d
}

// tables is one forwarder with 10k entries in the table under test, in the
// two-level "/p/<i>/file/<j>" shape DAPES names have.
const tableEntries = 10_000

func forwarder() (*nfd.Forwarder, *nfd.Face) {
	fw := nfd.NewForwarder(nfd.KernelClock{K: sim.NewKernel(1)}, nfd.Config{CsCapacity: tableEntries})
	return fw, fw.AddFace(false, func([]byte) {})
}

func tableName(i int) ndn.Name {
	return ndn.ParseName(fmt.Sprintf("/p/%04d/file", i/4)).AppendSeq(i % 4)
}

func randomBitmap(n int, rng *rand.Rand) *bitmap.Bitmap {
	b := bitmap.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	return b
}

var layerProbes = []layerProbe{
	{time: "sim.churn_ns", perOp: 1, prepare: func(n int) func() {
		// Re-arm a random one of 1e5 pending timers: the schedule-far,
		// cancel-early mix every protocol layer's timers produce.
		const pending = 100_000
		k := sim.NewKernel(1)
		fn := func() {}
		timers := make([]*sim.Timer, pending)
		for i := range timers {
			timers[i] = k.NewTimer(fn)
			timers[i].Reset(time.Second + time.Duration(i)*time.Millisecond)
		}
		return func() {
			state := uint64(1)
			for i := 0; i < n; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				timers[(state>>33)%pending].Reset(time.Second + time.Duration(state%uint64(8*time.Second)))
			}
		}
	}},
	{time: "sim.fire_ns", perOp: 1, prepare: func(n int) func() {
		// Schedule and fire, 1024 events at a time so the queue stays small.
		k := sim.NewKernel(1)
		fn := func() { sink++ }
		return func() {
			for i := 0; i < n; i++ {
				k.ScheduleFunc(time.Duration(i%1024)*time.Microsecond, fn)
				if i%1024 == 1023 || i == n-1 {
					if err := k.Run(0); err != nil {
						panic(err)
					}
				}
			}
		}
	}},
	{time: "sim.timer_reset_ns", perOp: 1, allocs: "sim.timer_reset_allocs", prepare: func(n int) func() {
		k := sim.NewKernel(1)
		fn := func() {}
		for i := 0; i < 1024; i++ {
			k.Schedule(time.Hour+time.Duration(i)*time.Second, fn)
		}
		tm := k.NewTimer(fn)
		return func() {
			for i := 0; i < n; i++ {
				tm.Reset(time.Duration(i%7) * time.Millisecond)
			}
		}
	}},
	{time: "sim.shard_window_ns", perOp: 1, prepare: func(n int) func() {
		// n lockstep windows of four shards that each fire one event.
		const shards, tick = 4, time.Microsecond
		sk := sim.NewShardedKernel(1, shards, tick)
		for i := 0; i < shards; i++ {
			k := sk.Shard(i)
			var step func()
			step = func() { k.ScheduleFunc(tick, step) }
			k.ScheduleFuncAt(0, step)
		}
		return func() {
			defer sk.Close()
			if err := sk.Run(time.Duration(n) * tick); err != nil {
				panic(err)
			}
		}
	}},
	{time: "phy.broadcast_ns", perOp: 1, allocs: "phy.broadcast_allocs", prepare: func(n int) func() {
		k, m := denseMedium()
		radios := m.Radios()
		payload := make([]byte, 256)
		return func() {
			for i := 0; i < n; i++ {
				m.Broadcast(radios[i%len(radios)], payload)
				if err := k.Run(0); err != nil {
					panic(err)
				}
			}
		}
	}},
	{time: "phy.neighbors_ns", perOp: 1, prepare: func(n int) func() {
		_, m := denseMedium()
		radios := m.Radios()
		return func() {
			for i := 0; i < n; i++ {
				sink += len(m.Neighbors(radios[i%len(radios)]))
			}
		}
	}},
	{time: "phy.attach_ns", perOp: 1, prepare: func(n int) func() {
		m := phy.NewMedium(sim.NewKernel(1), phy.Config{Range: 60})
		side := math.Sqrt(float64(n)) * 45
		rng := rand.New(rand.NewSource(7))
		walkers := make([]geo.Mobility, n)
		for i := range walkers {
			walkers[i] = geo.NewRandomDirection(geo.RandomDirectionConfig{
				Area:  geo.Rect{Width: side, Height: side},
				Start: geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
				RNG:   rng,
			})
		}
		return func() {
			for _, w := range walkers {
				m.Attach(w)
			}
		}
	}},
	{time: "geo.walk_new_ns", perOp: 1, prepare: func(n int) func() {
		// One walker with its own seeded source, as the world builders make
		// one per mobile node.
		area := geo.Rect{Width: 300, Height: 300}
		return func() {
			for i := 0; i < n; i++ {
				w := geo.NewRandomDirection(geo.RandomDirectionConfig{
					Area: area, Start: geo.Point{X: 150, Y: 150},
					RNG: rand.New(rand.NewSource(int64(i + 1))),
				})
				sink += int(w.PositionAt(0).X)
			}
		}
	}},
	{time: "geo.walk_pos_ns", perOp: 1, prepare: func(n int) func() {
		w := geo.NewRandomDirection(geo.RandomDirectionConfig{
			Area: geo.Rect{Width: 300, Height: 300}, Start: geo.Point{X: 150, Y: 150},
			RNG: rand.New(rand.NewSource(1)),
		})
		return func() {
			// Ten minutes of virtual time in 10 ms steps, over and over.
			for i := 0; i < n; i++ {
				sink += int(w.PositionAt(time.Duration(i%60_000) * 10 * time.Millisecond).X)
			}
		}
	}},
	{time: "geo.grid_query_ns", perOp: 1, prepare: func(n int) func() {
		const points = 1000
		side := math.Sqrt(points) * 45
		g := geo.NewGrid(60)
		rng := rand.New(rand.NewSource(7))
		at := make([]geo.Point, points)
		for i := range at {
			at[i] = geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			g.Insert(i, at[i])
		}
		var buf []int
		return func() {
			for i := 0; i < n; i++ {
				buf = g.QueryRange(at[i%points], 60, buf[:0])
				sink += len(buf)
			}
		}
	}},
	{time: "ndn.encode_cached_ns", perOp: 1, prepare: func(n int) func() {
		d := packetData()
		d.Encode()
		return func() {
			for i := 0; i < n; i++ {
				sink += len(d.Encode())
			}
		}
	}},
	{time: "ndn.decode_ns", perOp: 1, allocs: "ndn.decode_allocs", prepare: func(n int) func() {
		wire := packetData().Encode()
		return func() {
			for i := 0; i < n; i++ {
				if ndn.NewPacket(wire).Data() == nil {
					panic("ndn: decode failed")
				}
			}
		}
	}},
	{time: "ndn.extra_receiver_ns", perOp: 1, prepare: func(n int) func() {
		pkt := ndn.NewPacket(packetData().Encode())
		first := pkt.Data()
		return func() {
			for i := 0; i < n; i++ {
				if pkt.Data() != first {
					panic("ndn: shared decode missed")
				}
			}
		}
	}},
	{time: "ndn.name_string_ns", perOp: 1, allocs: "ndn.name_string_allocs", prepare: func(n int) func() {
		name := ndn.ParseName("/field-report-1533783193")
		return func() {
			for i := 0; i < n; i++ {
				sink += len(name.String())
			}
		}
	}},
	{time: "nfd.cs_find_ns", perOp: 1, prepare: func(n int) func() {
		fw, _ := forwarder()
		queries := make([]*ndn.Interest, tableEntries/4)
		for i := 0; i < tableEntries; i++ {
			d := &ndn.Data{Name: tableName(i), Content: []byte("x")}
			d.SignDigest()
			fw.Cs().Insert(d)
			queries[i/4] = &ndn.Interest{Name: d.Name.Prefix(d.Name.Len() - 1), CanBePrefix: true}
		}
		return func() {
			for i := 0; i < n; i++ {
				if fw.Cs().Find(queries[i%len(queries)]) == nil {
					panic("nfd: content store miss")
				}
			}
		}
	}},
	{time: "nfd.pit_find_ns", perOp: 1, prepare: func(n int) func() {
		fw, face := forwarder()
		names := make([]ndn.Name, tableEntries)
		for i := range names {
			names[i] = tableName(i)
			fw.Pit().Insert(&ndn.Interest{Name: names[i], Nonce: uint32(i)}, face, time.Hour)
		}
		return func() {
			for i := 0; i < n; i++ {
				if fw.Pit().Find(names[i%tableEntries]) == nil {
					panic("nfd: pit miss")
				}
			}
		}
	}},
	{time: "nfd.fib_lpm_ns", perOp: 1, prepare: func(n int) func() {
		fw, face := forwarder()
		lookups := make([]ndn.Name, tableEntries)
		for i := range lookups {
			prefix := ndn.ParseName(fmt.Sprintf("/p/%05d/coll", i))
			fw.Fib().Insert(prefix, face)
			lookups[i] = prefix.Append("file").AppendSeq(i % 16)
		}
		return func() {
			for i := 0; i < n; i++ {
				if fw.Fib().Lookup(lookups[i%tableEntries]) == nil {
					panic("nfd: fib miss")
				}
			}
		}
	}},
	{time: "core.done_ns", perOp: 1, allocs: "core.done_allocs", prepare: func(n int) func() {
		// The completion poll: what the trial drivers ask every downloader
		// after every event.
		k := sim.NewKernel(1)
		p := core.NewPeer(k, phy.NewMedium(k, phy.Config{Range: 60}), geo.Stationary{}, nil, nil, core.Config{})
		coll := ndn.ParseName("/field-report-1533783193")
		p.Subscribe(coll)
		return func() {
			for i := 0; i < n; i++ {
				if done, _ := p.Done(coll); done {
					panic("core: empty peer reports done")
				}
			}
		}
	}},
	{time: "bitmap.diff_count_ns", perOp: 1, prepare: func(n int) func() {
		rng := rand.New(rand.NewSource(1))
		a, b := randomBitmap(200, rng), randomBitmap(200, rng)
		return func() {
			for i := 0; i < n; i++ {
				c, err := a.MissingFrom(b)
				if err != nil {
					panic(err)
				}
				sink += c
			}
		}
	}},
	{time: "rpf.plan_ns", perOp: 1, prepare: func(n int) func() {
		// A 200-packet collection, eight neighbours, the next 16 requests.
		rng := rand.New(rand.NewSource(1))
		s := rpf.NewLocalNeighborhood(200, true, rng)
		for id := 0; id < 8; id++ {
			s.Observe(id, randomBitmap(200, rng))
		}
		own, available := randomBitmap(200, rng), bitmap.New(200)
		available.SetAll()
		return func() {
			for i := 0; i < n; i++ {
				sink += len(rpf.RequestPlan(s, own, available, 16))
			}
		}
	}},
	{time: "peba.delay_ns", perOp: 1, prepare: func(n int) func() {
		b := peba.New(peba.Config{}, rand.New(rand.NewSource(1)))
		for i := 0; i < 3; i++ {
			b.OnCollision()
		}
		return func() {
			for i := 0; i < n; i++ {
				sink += int(b.Delay(float64(i%100) / 100))
			}
		}
	}},
	{time: "metadata.build_ms", perOp: 1e6, prepare: func(n int) func() {
		// The sweeps' collection: 10 files of 20 packets of 1000 B.
		rng := rand.New(rand.NewSource(1))
		files := make([]metadata.File, 10)
		for i := range files {
			files[i] = metadata.File{Name: fmt.Sprintf("image-%03d", i), Content: make([]byte, 20*1000)}
			rng.Read(files[i].Content)
		}
		coll := ndn.ParseName("/field-report-1533783193")
		return func() {
			for i := 0; i < n; i++ {
				if _, err := metadata.BuildCollection(coll, files, 1000, metadata.FormatPacketDigest, nil); err != nil {
					panic(err)
				}
			}
		}
	}},
}
