package experiment

import (
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"dapes/internal/geo"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// This file runs the Fig.-7 DAPES workload on the space-partitioned
// parallel kernel: the area splits into vertical stripes balanced on the
// t=0 node-position CDF (geo.BalancedStripes), each stripe gets its own
// sim.Kernel and phy.Medium, and the stripes advance in lookahead windows
// — batched past provably quiet boundaries — exchanging cross-boundary
// broadcasts at window barriers (sim.ShardedKernel + phy.ShardedMedium).
//
// The sequential kernel remains the executable reference, selectable the
// same way phy.IndexNaive and sim.QueueHeap are: a one-shard run is
// byte-identical to the sequential path (same seeds, same radio IDs, same
// event schedule), which is what the sharded golden gate checks for every
// registered scenario. Runs with more than one shard relax the global-trace
// contract — per-shard RNG streams, barrier-delayed cross-shard deliveries,
// local-only PEBA feedback — as documented on RunShardedDAPESTrial and in
// docs/PERFORMANCE.md; they stay deterministic (serial and parallel window
// execution produce identical traces) but are not byte-comparable to the
// sequential schedule.

// defaultShards is the package-wide shard-count default, mirroring
// phy.SetDefaultIndex and sim.SetDefaultQueue: an atomic knob the golden
// tests flip to force every DAPES trial through one code path or the other.
var defaultShards atomic.Int64

// SetDefaultShards sets the package default shard count consulted when
// Scale.Shards is zero, returning the previous value. Positive n routes
// every DAPES trial through the sharded kernel with n shards; negative n
// forces the sequential reference path even for scenarios that default to
// sharding (urban-metro); zero — the initial value — defers to each
// scenario's own default.
func SetDefaultShards(n int) int {
	return int(defaultShards.Swap(int64(n)))
}

// resolveShards returns the shard count a generic DAPES trial should run
// with: the scale's explicit knob first, then a positive package default.
// Zero means the sequential reference kernel.
func resolveShards(s Scale) int {
	if s.Shards > 0 {
		return s.Shards
	}
	if d := int(defaultShards.Load()); d > 0 {
		return d
	}
	return 0
}

// shardedWorld mirrors topology for the partitioned kernel: one kernel and
// medium per stripe, plus the same per-slot mobility models drawn from the
// same placement RNG stream, so a node's walk is identical whether the
// world is sharded or not.
type shardedWorld struct {
	sk      *sim.ShardedKernel
	sm      *phy.ShardedMedium
	stripes geo.Stripes
	placement
}

// buildShardedWorld replicates buildTopology draw for draw — same TrialSeed
// kernel seeding (shard 0's seed is exactly the sequential kernel's seed),
// same placement RNG stream, same walk order — on the partitioned
// substrate.
func buildShardedWorld(s Scale, wifiRange float64, trial int, shards int, lookahead time.Duration) *shardedWorld {
	seed := TrialSeed(s.BaseSeed, trial)
	cfg := phy.Config{Range: wifiRange, LossRate: s.LossRate}
	if lookahead <= 0 {
		lookahead = cfg.ConservativeLookahead()
	}
	sk := sim.NewShardedKernel(seed, shards, lookahead)
	sm := phy.NewShardedMedium(sk, cfg)

	side := s.AreaSide
	if side <= 0 {
		side = areaSide
	}
	area := geo.Rect{Width: side, Height: side}
	prng := rand.New(rand.NewSource(seed * 31))
	walk := func() geo.Mobility {
		return geo.NewRandomDirection(geo.RandomDirectionConfig{
			Area:  area,
			Start: geo.Point{X: prng.Float64() * side, Y: prng.Float64() * side},
			RNG:   rand.New(rand.NewSource(prng.Int63())),
		})
	}

	w := &shardedWorld{sk: sk, sm: sm}
	w.producerMobility = walk()
	w.stationaryPos = []geo.Point{
		{X: side / 4, Y: side / 4}, {X: 3 * side / 4, Y: side / 4},
		{X: side / 4, Y: 3 * side / 4}, {X: 3 * side / 4, Y: 3 * side / 4},
	}
	if s.Stationary < len(w.stationaryPos) {
		w.stationaryPos = w.stationaryPos[:s.Stationary]
	}
	for i := 0; i < s.MobileDown; i++ {
		w.downloaderMobility = append(w.downloaderMobility, walk())
	}
	for i := 0; i < s.PureForwarders+s.Intermediates; i++ {
		w.forwarderMobility = append(w.forwarderMobility, walk())
	}

	// Density-balanced stripe boundaries from the t=0 position CDF: every
	// node's starting X, in attach order, feeds the quantile cuts, so each
	// stripe begins with an equal share of the population instead of an
	// equal share of the area — a hotspot stripe would otherwise gate every
	// window for all its siblings. With one shard (or no positions) this is
	// exactly the uniform ShardOf partition, preserving the sequential
	// bridge byte for byte.
	xs := make([]float64, 0, 1+len(w.stationaryPos)+len(w.downloaderMobility)+len(w.forwarderMobility))
	xs = append(xs, w.producerMobility.PositionAt(0).X)
	for _, p := range w.stationaryPos {
		xs = append(xs, p.X)
	}
	for _, m := range w.downloaderMobility {
		xs = append(xs, m.PositionAt(0).X)
	}
	for _, m := range w.forwarderMobility {
		xs = append(xs, m.PositionAt(0).X)
	}
	w.stripes = geo.BalancedStripes(wifiRange, side, shards, xs)
	return w
}

// site returns the kernel and medium of the shard owning a node: the
// density-balanced stripe of its t=0 position. Ownership decides which
// kernel runs the node's events, not who hears it — a walker that wanders
// across the stripe boundary keeps its home and reaches its new neighbors
// through the cross-shard handoff path.
func (w *shardedWorld) site(m geo.Mobility) (*sim.Kernel, *phy.Medium) {
	h := w.stripes.Of(m.PositionAt(0))
	return w.sk.Shard(h), w.sm.Medium(h)
}

// RunShardedDAPESTrial executes one Fig.-7 trial on the space-partitioned
// kernel with the given shard count and lookahead window (non-positive
// lookahead selects the conservative bound, Config.ConservativeLookahead,
// under which no in-flight frame can span a window edge). With shards == 1
// the run is byte-identical to RunDAPESTrial's sequential path.
//
// With shards > 1 the global-trace contract is relaxed, deliberately and
// deterministically:
//
//   - each stripe's kernel draws from its own seeded RNG stream
//     (sim.ShardSeed), so jitter draws differ from the sequential schedule;
//   - cross-stripe broadcasts register at the next window barrier, so a
//     reception completing earlier in the same window cannot collide with
//     them, and a relaxed (larger) lookahead delays cross-stripe delivery
//     by up to one window;
//   - PEBA overhearing-based suppression sees only same-stripe traffic
//     between barriers.
//
// Aggregate statistics stay in family with the sequential run (the
// acceptance bar for the scenarios that default to sharding), and the whole
// schedule remains a pure function of (BaseSeed, trial, shards, lookahead):
// serial and parallel window execution are byte-identical, which
// TestShardedTrialSerialMatchesParallel gates.
func RunShardedDAPESTrial(s Scale, wifiRange float64, trial int, opts DAPESOptions, shards int, lookahead time.Duration) (TrialResult, error) {
	w, sk, err := buildShardedDAPES(s, wifiRange, trial, opts, shards, lookahead)
	defer sk.Close()
	if err != nil {
		return TrialResult{}, err
	}
	return w.run(), nil
}

// buildShardedDAPES builds and starts the partitioned world; the caller
// closes the returned kernel, error or not.
func buildShardedDAPES(s Scale, wifiRange float64, trial int, opts DAPESOptions, shards int, lookahead time.Duration) (*dapesWorld, *sim.ShardedKernel, error) {
	sw := buildShardedWorld(s, wifiRange, trial, shards, lookahead)
	for i := 0; i < sw.sk.Shards(); i++ {
		installMediumFaults(sw.sm.Medium(i), s.Faults, TrialSeed(s.BaseSeed, trial))
	}
	w := &dapesWorld{kernel: sw.sk, medium: sw.sm}
	return w, sw.sk, w.start(s, trial, opts, sw.placement, sw.site)
}

// urbanMetroShards is urban-metro's default stripe count when neither the
// scale nor SetDefaultShards picks one.
const urbanMetroShards = 4

// urbanMetroLookahead is the scenario's relaxed window: ten conservative
// lookaheads. Cross-stripe deliveries slip by at most one window (~260 µs
// of virtual time against a multi-minute horizon) in exchange for an order
// of magnitude fewer barriers.
func urbanMetroLookahead(cfg phy.Config) time.Duration {
	return 10 * cfg.ConservativeLookahead()
}

// urbanMetroTrial is urban-grid-xl's node mix on the partitioned kernel
// with a density-preserving area: the 25x mix in an area scaled so nodes
// per square meter match the paper's Fig.-7 world, which at plan scale
// (plans/urban-metro.toml) reaches 50k+ nodes. Shards come from
// Scale.Shards, then SetDefaultShards, then default to 4; a negative
// package default forces the sequential reference (that is how the sharded
// golden gate pins this scenario too).
func urbanMetroTrial(s Scale, wifiRange float64, trial int) (TrialResult, error) {
	metro := s
	metro.MobileDown = s.MobileDown * 25
	metro.PureForwarders = s.PureForwarders * 25
	metro.Intermediates = s.Intermediates * 25
	if metro.AreaSide <= 0 {
		total := float64(1 + metro.Stationary + metro.MobileDown + metro.PureForwarders + metro.Intermediates)
		metro.AreaSide = areaSide * math.Sqrt(total/45)
	}
	n := metro.Shards
	if n <= 0 {
		switch d := int(defaultShards.Load()); {
		case d > 0:
			n = d
		case d < 0:
			n = 0
		default:
			n = urbanMetroShards
		}
	}
	if n <= 0 {
		return runSequentialDAPESTrial(metro, wifiRange, trial, PaperDefaults())
	}
	la := urbanMetroLookahead(phy.Config{Range: wifiRange, LossRate: metro.LossRate})
	return RunShardedDAPESTrial(metro, wifiRange, trial, PaperDefaults(), n, la)
}
