package phy

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dapes/internal/geo"
	"dapes/internal/sim"
)

// TestShardedMediumSingleShardMatchesMedium pins the executable bridge
// between sharded and sequential phy: a 1-shard ShardedMedium installs no
// cross hook and shares no counter state with siblings, so the same
// workload on it and on a standalone Medium must produce byte-identical
// delivery traces (same IDs, same schedule, same RNG draws).
func TestShardedMediumSingleShardMatchesMedium(t *testing.T) {
	t.Parallel()
	cfg := Config{Range: 60, LossRate: 0.2}
	build := func() (*sim.Kernel, *Medium) {
		sk := sim.NewShardedKernel(11, 1, cfg.ConservativeLookahead())
		sm := NewShardedMedium(sk, cfg)
		return sk.Shard(0), sm.Medium(0)
	}
	run := func(k *sim.Kernel, m *Medium) []string {
		rng := rand.New(rand.NewSource(5))
		var trace []string
		var radios []*Radio
		for i := 0; i < 30; i++ {
			r := m.Attach(geo.Stationary{At: geo.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}})
			r.SetHandler(func(f Frame) {
				trace = append(trace, fmt.Sprintf("%v %d->%d %d", k.Now(), f.From, r.ID(), f.Payload[0]))
			})
			radios = append(radios, r)
		}
		for i, r := range radios {
			r := r
			b := byte(i)
			k.Schedule(time.Duration(rng.Intn(3000))*time.Microsecond, func() {
				m.Broadcast(r, []byte{b, 2, 3})
			})
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return trace
	}

	plainK := sim.NewKernel(11)
	plain := run(plainK, NewMedium(plainK, cfg))
	shardedK, shardedM := build()
	sharded := run(shardedK, shardedM)

	if len(plain) == 0 {
		t.Fatal("workload delivered nothing; test is vacuous")
	}
	if len(sharded) != len(plain) {
		t.Fatalf("trace lengths diverged: sharded %d, plain %d", len(sharded), len(plain))
	}
	for i := range plain {
		if sharded[i] != plain[i] {
			t.Fatalf("trace diverged at %d:\n sharded %s\n plain   %s", i, sharded[i], plain[i])
		}
	}
}

// TestShardedMediumCrossBoundary pins the handoff path: radios homed on
// different shards but within radio range must hear each other, with
// delivery at exactly start + air time + propagation delay under the
// conservative lookahead, and simultaneous transmissions from different
// shards must garble a common receiver just as a single medium would.
func TestShardedMediumCrossBoundary(t *testing.T) {
	t.Parallel()
	cfg := Config{Range: 60}
	sk := sim.NewShardedKernel(7, 2, cfg.ConservativeLookahead())
	sm := NewShardedMedium(sk, cfg)
	// Stripe split of [0, 200) at x=100: a at 80 → shard 0, b at 120 → shard 1.
	const width = 200.0
	a := sm.Medium(geo.ShardOf(geo.Point{X: 80}, cfg.Range, width, 2)).Attach(geo.Stationary{At: geo.Point{X: 80, Y: 50}})
	b := sm.Medium(geo.ShardOf(geo.Point{X: 120}, cfg.Range, width, 2)).Attach(geo.Stationary{At: geo.Point{X: 120, Y: 50}})
	if a.medium == b.medium {
		t.Fatal("test setup: both radios homed on the same shard")
	}
	if a.ID() == b.ID() {
		t.Fatal("global radio IDs collided across shards")
	}

	var got []string
	hook := func(r *Radio) {
		r.SetHandler(func(f Frame) {
			got = append(got, fmt.Sprintf("%v %d->%d", r.medium.kernel.Now(), f.From, r.ID()))
		})
	}
	hook(a)
	hook(b)

	payload := []byte{9, 9, 9}
	txStart := 100 * time.Microsecond
	a.medium.kernel.ScheduleFuncAt(txStart, func() { a.medium.Broadcast(a, payload) })
	if err := sk.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	wantAt := txStart + cfg.TxDuration(len(payload)) + time.Microsecond // default propagation delay
	want := fmt.Sprintf("%v %d->%d", wantAt, a.ID(), b.ID())
	if len(got) != 1 || got[0] != want {
		t.Fatalf("cross-shard delivery = %v, want [%s]", got, want)
	}

	// Simultaneous transmissions from both shards: each would deliver to
	// the other's radio, but the receptions overlap at both receivers and
	// must garble — no deliveries, two collisions counted.
	got = got[:0]
	before := sm.Stats()
	at := 1500 * time.Millisecond // past the previous run's horizon
	a.medium.kernel.ScheduleFuncAt(at, func() { a.medium.Broadcast(a, payload) })
	b.medium.kernel.ScheduleFuncAt(at, func() { b.medium.Broadcast(b, payload) })
	if err := sk.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("overlapping cross-shard transmissions delivered %v, want none", got)
	}
	after := sm.Stats()
	if after.Collisions-before.Collisions != 2 {
		t.Fatalf("collisions grew by %d, want 2", after.Collisions-before.Collisions)
	}
	if after.Transmissions-before.Transmissions != 2 {
		t.Fatalf("transmissions grew by %d, want 2 (counted once, on the home shard)", after.Transmissions-before.Transmissions)
	}
}

// shardedMediumChurn runs a mobile multi-shard broadcast workload and
// returns the per-shard delivery traces; the body of the serial==parallel
// equivalence gate at the phy layer (and, under -race, the proof that
// member mediums really share nothing within a window).
func shardedMediumChurn(t *testing.T, shards int, opts sim.Options) [][]string {
	t.Helper()
	cfg := Config{Range: 60, LossRate: 0.1}
	const width = 400.0
	sk := opts.NewShardedKernel(23, shards, cfg.ConservativeLookahead())
	defer sk.Close()
	if sk.Options() != opts {
		t.Fatalf("built %+v, asked for %+v", sk.Options(), opts)
	}
	sm := NewShardedMedium(sk, cfg)
	traces := make([][]string, shards)

	rng := rand.New(rand.NewSource(17))
	area := geo.Rect{Width: width, Height: 200}
	for i := 0; i < 12*shards; i++ {
		start := geo.Point{X: rng.Float64() * width, Y: rng.Float64() * 200}
		home := geo.ShardOf(start, cfg.Range, width, shards)
		m := sm.Medium(home)
		var mob geo.Mobility = geo.Stationary{At: start}
		if i%3 != 0 {
			mob = geo.NewRandomDirection(geo.RandomDirectionConfig{
				Area: area, Start: start, MinSpeed: 50, MaxSpeed: 200, // fast: crosses stripes
				RNG: rand.New(rand.NewSource(int64(1000 + i))),
			})
		}
		r := m.Attach(mob)
		r.SetHandler(func(f Frame) {
			traces[home] = append(traces[home], fmt.Sprintf("%v %d->%d %d", m.kernel.Now(), f.From, r.ID(), f.Payload[0]))
		})
		// Periodic beaconing with per-node jitter.
		k := sk.Shard(home)
		jit := k.Stream(r.ID(), sim.PurposePeer)
		b := byte(i)
		var beat func()
		beat = func() {
			m.Broadcast(r, []byte{b, 0, 1, 2})
			if k.Now() < 400*time.Millisecond {
				k.ScheduleFunc(20*time.Millisecond+jit.Jitter(5*time.Millisecond), beat)
			}
		}
		k.ScheduleFunc(jit.Jitter(10*time.Millisecond), beat)
	}
	if err := sk.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return traces
}

// TestShardedMediumSerialMatchesParallel is the phy-layer half of the
// sharded equivalence gate: identical per-shard delivery traces whether
// windows run serially or one goroutine per busy shard, over a workload
// with fast walkers crossing stripe boundaries and a lossy channel
// exercising every receiver's loss coin.
func TestShardedMediumSerialMatchesParallel(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{2, 4} {
		serial := shardedMediumChurn(t, shards, sim.Options{SerialWindows: true})
		par := shardedMediumChurn(t, shards, sim.Options{})
		total := 0
		for s := 0; s < shards; s++ {
			if len(serial[s]) != len(par[s]) {
				t.Fatalf("%d shards: shard %d trace lengths diverged: serial %d, parallel %d",
					shards, s, len(serial[s]), len(par[s]))
			}
			for i := range serial[s] {
				if serial[s][i] != par[s][i] {
					t.Fatalf("%d shards: shard %d diverged at %d:\n serial   %s\n parallel %s",
						shards, s, i, serial[s][i], par[s][i])
				}
			}
			total += len(serial[s])
		}
		if total == 0 {
			t.Fatalf("%d shards: churn delivered nothing; property is vacuous", shards)
		}
	}
}

// cullWorkload runs a wide-world broadcast workload under the given
// windowing mode and cull setting, returning the per-shard delivery
// traces, the number of window barriers, and how many handoffs the mask
// cull dropped. Two shapes: the default spreads radios everywhere and adds
// straddling pairs at every stripe boundary (real cross-shard traffic the
// cull must never touch — but contact is always possible, so windows never
// extend); clustered packs each stripe's population around its center with
// one bounded walker, so the masks prove long quiet gaps and the oracle
// must collapse barriers.
func cullWorkload(t *testing.T, mode sim.WindowingMode, noCull, clustered bool) ([][]string, uint64, uint64) {
	t.Helper()
	cfg := Config{Range: 60, LossRate: 0.1}
	const width, shards = 3000.0, 4
	sk := sim.Options{Windowing: mode}.NewShardedKernel(41, shards, cfg.ConservativeLookahead())
	defer sk.Close()
	if got := sk.Options().Windowing; got != mode {
		t.Fatalf("built windowing mode %d, asked for %d", got, mode)
	}
	sm := NewShardedMedium(sk, cfg)
	sm.noCull = noCull
	traces := make([][]string, shards)

	rng := rand.New(rand.NewSource(29))
	area := geo.Rect{Width: width, Height: 300}
	attach := func(i int, start geo.Point, mob geo.Mobility) {
		home := geo.ShardOf(start, cfg.Range, width, shards)
		m := sm.Medium(home)
		r := m.Attach(mob)
		r.SetHandler(func(f Frame) {
			traces[home] = append(traces[home], fmt.Sprintf("%v %d->%d", m.kernel.Now(), f.From, r.ID()))
		})
		k := sk.Shard(home)
		jit := k.Stream(r.ID(), sim.PurposePeer)
		var beat func()
		beat = func() {
			m.Broadcast(r, []byte{byte(i), 1, 2})
			if k.Now() < 400*time.Millisecond {
				k.ScheduleFunc(25*time.Millisecond+jit.Jitter(5*time.Millisecond), beat)
			}
		}
		k.ScheduleFunc(jit.Jitter(15*time.Millisecond), beat)
	}
	i := 0
	if clustered {
		// Tight per-stripe clusters around each stripe center, hundreds of
		// meters from any boundary; one walker bounded inside stripe 0's
		// left edge keeps a nonzero closing speed in the oracle math.
		for s := 0; s < 4; s++ {
			cx := (float64(s) + 0.5) * width / 4
			for j := 0; j < 8; j++ {
				start := geo.Point{X: cx + (rng.Float64()-0.5)*120, Y: rng.Float64() * 300}
				attach(i, start, geo.Stationary{At: start})
				i++
			}
		}
		walkStart := geo.Point{X: 200, Y: 150}
		attach(i, walkStart, geo.NewRandomDirection(geo.RandomDirectionConfig{
			Area: geo.Rect{Width: 400, Height: 300}, Start: walkStart,
			MinSpeed: 5, MaxSpeed: 30,
			RNG: rand.New(rand.NewSource(501)),
		}))
	} else {
		for ; i < 32; i++ {
			start := geo.Point{X: rng.Float64() * width, Y: rng.Float64() * 300}
			var mob geo.Mobility = geo.Stationary{At: start}
			if i%4 == 0 {
				mob = geo.NewRandomDirection(geo.RandomDirectionConfig{
					Area: area, Start: start, MinSpeed: 5, MaxSpeed: 30,
					RNG: rand.New(rand.NewSource(int64(500 + i))),
				})
			}
			attach(i, start, mob)
		}
		// Straddling pairs at each interior stripe boundary (x = 750, 1500,
		// 2250): genuine cross-shard deliveries the cull must never touch.
		for _, bx := range []float64{width / 4, width / 2, 3 * width / 4} {
			attach(i, geo.Point{X: bx - 20, Y: 150}, geo.Stationary{At: geo.Point{X: bx - 20, Y: 150}})
			i++
			attach(i, geo.Point{X: bx + 20, Y: 150}, geo.Stationary{At: geo.Point{X: bx + 20, Y: 150}})
			i++
		}
	}
	if err := sk.Run(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return traces, sk.Windows(), sm.culledTotal()
}

// TestShardedMediumCullingAndBatchingTraceNeutral is the phy half of the
// batching golden gate, run against the real occupancy-mask oracle rather
// than a hand-written one: mask culling on, culling off, and full lockstep
// windowing must all produce byte-identical delivery traces — while the
// cull demonstrably drops handoffs (straddled scenario, where boundary
// pairs force real cross-shard deliveries) and batching demonstrably
// collapses barriers (clustered scenario, where the masks prove the
// stripes cannot touch). This is what makes "culled handoff ≡ staged
// handoff with zero candidates" and "extended windows carry no cross-shard
// traffic" executable claims.
func TestShardedMediumCullingAndBatchingTraceNeutral(t *testing.T) {
	t.Parallel()
	for _, clustered := range []bool{false, true} {
		name := "straddled"
		if clustered {
			name = "clustered"
		}
		base, baseWin, culled := cullWorkload(t, sim.WindowBatched, false, clustered)
		noCull, _, zero := cullWorkload(t, sim.WindowBatched, true, clustered)
		lock, lockWin, _ := cullWorkload(t, sim.WindowLockstep, false, clustered)

		total := 0
		for s := range base {
			for variant, other := range map[string][][]string{"noCull": noCull, "lockstep": lock} {
				if len(base[s]) != len(other[s]) {
					t.Fatalf("%s: shard %d trace lengths diverged: culled+batched %d, %s %d",
						name, s, len(base[s]), variant, len(other[s]))
				}
				for i := range base[s] {
					if base[s][i] != other[s][i] {
						t.Fatalf("%s: shard %d diverged at %d:\n culled+batched %s\n %s %s",
							name, s, i, base[s][i], variant, other[s][i])
					}
				}
			}
			total += len(base[s])
		}
		if total == 0 {
			t.Fatalf("%s: workload delivered nothing; gates are vacuous", name)
		}
		if culled == 0 {
			t.Fatalf("%s: mask cull dropped no handoffs; neutrality gate is vacuous", name)
		}
		if zero != 0 {
			t.Fatalf("%s: noCull run still culled %d handoffs", name, zero)
		}
		if clustered && baseWin*2 >= lockWin {
			t.Fatalf("batching collapsed no barriers: lockstep %d windows, batched %d", lockWin, baseWin)
		}
	}
}
