package experiment

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dapes/internal/phy"
	"dapes/internal/sim"
)

// goldenScale keeps every scenario cheap enough to run twice per test while
// still exercising discovery, advertisement, fetching, and forwarding. The
// multiplier scenarios (urban-grid 5x, urban-grid-xl 25x) blow the node mix
// up from this base, so it stays tiny.
func goldenScale() Scale {
	return Scale{
		Trials:         1,
		NumFiles:       2,
		PacketsPerFile: 4,
		PacketSize:     200,
		Ranges:         []float64{60},
		Horizon:        90 * time.Second,
		Stationary:     2,
		MobileDown:     2,
		PureForwarders: 1,
		Intermediates:  1,
		LossRate:       0.10,
		BaseSeed:       7,
		Design:         PaperDefaults(),
	}
}

// assertEngine requires that a run of scenario name at scale s built at
// least one world through newWorld, and that the kernel and medium of every
// world it built report — themselves, through their own accessors — the
// engine s asked for. This is what keeps an equivalence gate from silently
// comparing production with production.
func assertEngine(t *testing.T, name string, s Scale, built []*world) {
	t.Helper()
	if len(built) == 0 {
		t.Fatalf("%s built no world through newWorld: its engine is unobserved", name)
	}
	for i, w := range built {
		if q := w.Queue(); q != s.Engine.Queue {
			t.Errorf("%s: world %d's kernel runs on queue %d, asked for %d", name, i, q, s.Engine.Queue)
		}
		if idx := w.medium.Config().Index; idx != s.Engine.Index {
			t.Errorf("%s: world %d's medium uses index %d, asked for %d", name, i, idx, s.Engine.Index)
		}
	}
}

// goldenGate is the body of every registry-wide engine gate: each
// registered scenario runs once at ref — goldenScale on one retained
// reference — and once at prod, and the two must produce identical
// per-trial metrics (download times, delivery/transmission counts,
// forwarding accuracy, memory) and byte-identical emitted JSON. Any
// divergence means the production implementation changed simulation
// behavior, which it must never do. Both runs must also have built exactly
// the engine they named (assertEngine). The engine travels in the Scale, so
// the scenarios — and the gates — run in parallel.
func goldenGate(t *testing.T, refName string, ref Scale, prodName string, prod Scale) {
	t.Parallel()
	run := func(t *testing.T, sc *Scenario, s Scale) (RunResult, []byte) {
		t.Helper()
		res, raw, built := emitJSON(t, sc.Name, s, 60)
		assertEngine(t, sc.Name, s, built)
		return res, raw
	}

	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			refRes, refJSON := run(t, sc, ref)
			prodRes, prodJSON := run(t, sc, prod)

			if !reflect.DeepEqual(refRes, prodRes) {
				t.Errorf("RunResult diverged\n%s: %+v\n%s: %+v", refName, refRes, prodName, prodRes)
			}
			for i := range refRes.Trials {
				if refRes.Trials[i] != prodRes.Trials[i] {
					t.Errorf("trial %d diverged\n%s: %+v\n%s: %+v",
						i, refName, refRes.Trials[i], prodName, prodRes.Trials[i])
				}
			}
			if !bytes.Equal(refJSON, prodJSON) {
				t.Errorf("emitted JSON diverged\n%s: %s\n%s: %s", refName, refJSON, prodName, prodJSON)
			}
			// Guard against a degenerate world where equivalence is vacuous.
			if refRes.Trials[0].Transmissions == 0 {
				t.Error("golden run put no frames on the air; scale too small to prove anything")
			}
		})
	}
}

// TestGoldenTraceShardedMatchesSequential holds that Scale.Shards is read
// by nothing: for every registered scenario, a scale that still asks for
// four stripes (as BENCHMARK.json's metro-sharded workload does) runs the
// same trial, byte for byte, as one that asks for none. Every trial runs on
// the one sequential kernel.
func TestGoldenTraceShardedMatchesSequential(t *testing.T) {
	sharded := goldenScale()
	sharded.Shards = 4
	goldenGate(t, "sequential", goldenScale(), "shards=4", sharded)
}

// TestGoldenTraceGridMatchesNaive is the spatial index's acceptance gate:
// for every registered scenario, the grid-indexed medium must reproduce the
// brute-force scan's results exactly.
func TestGoldenTraceGridMatchesNaive(t *testing.T) {
	naive := goldenScale()
	naive.Engine.Index = phy.IndexNaive
	goldenGate(t, "naive", naive, "grid", goldenScale())
}

// TestGoldenTraceWheelMatchesHeap is the event-kernel acceptance gate: for
// every registered scenario, the timer-wheel scheduler must reproduce the
// reference binary heap exactly. Both queues pop strictly by (time,
// sequence), so the trace is queue-independent by construction.
func TestGoldenTraceWheelMatchesHeap(t *testing.T) {
	heap := goldenScale()
	heap.Engine.Queue = sim.QueueHeap
	goldenGate(t, "heap", heap, "wheel", goldenScale())
}

// TestBaselineTrialsDeterministic reruns the same trial of every Fig.-7
// system twice in-process and requires identical metrics. This pins the
// fix for map-iteration-order leaks in the baselines (DHT migration offers
// went on the air in map order; Bithoc broke holder ties by map order),
// which made Ekta/Bithoc traces vary run to run.
func TestBaselineTrialsDeterministic(t *testing.T) {
	t.Parallel()
	s := goldenScale()
	for _, name := range []string{"fig7-dapes", "fig7-bithoc", "fig7-ekta"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := Find(name)
			if err != nil {
				t.Fatal(err)
			}
			first, err := sc.Run(s, 60, 0)
			if err != nil {
				t.Fatal(err)
			}
			for rerun := 0; rerun < 3; rerun++ {
				again, err := sc.Run(s, 60, 0)
				if err != nil {
					t.Fatal(err)
				}
				if first != again {
					t.Fatalf("rerun %d diverged:\nfirst: %+v\nagain: %+v", rerun, first, again)
				}
			}
		})
	}
}

// TestTrialAllocationBudget bounds what one whole trial allocates. The dense
// scenarios are held in heap objects over one trial at the golden-trace
// scale, budget 1.25x the count measured once relay rings grew in place,
// the name tree lost its wide nodes' hash index and a radio handed frames
// to its node, not to a closure (urban-grid 3,823, urban-grid-xl 10,222;
// 3,882 and 10,362 before, 4,062 and 11,186 before world construction came
// from slabs, 4,779 and 12,741 before forward records, Content Store
// entries and a neighbour's offer set stopped being objects of their own,
// 5,417 and 14,099 with a decode per Data transmission, 9,144 and
// 27,995 before a heard Interest was decoded into its pooled transmission
// record). The paper's own world, fig7-dapes at the reduced scale the
// benchmark sweeps (range 60, trial 0: 26,962 frames), is held in objects
// per transmitted frame: 0.51 without the name tree's index (0.55 with it,
// 1.16 before a relay's forwards lived in a ring, Content Store entries in
// their name-tree nodes and a neighbour's one offer inline, 1.62 with a
// decode per Data transmission, 1.99 with a fresh wire per Interest, 2.50
// before that); the budget is 1.25x. The same cell is held in bytes
// allocated per transmitted frame as well: 148.1 since relay rings grow by
// a chunk in place and the name tree has no index (157.9 with the index,
// 170.9 with rings that doubled by copying, 179.4 before the forward ring;
// 207.3 with a map of nonces and a growing manifest buffer). Its budget is
// 1.05x, so that any of these savings coming back fails it.
// The IP baseline's world, fig7-bithoc at the same scale and cell, is held
// the same way: 0.28 objects per frame since all its wires, HELLOs
// included, come from the medium's pool and go back to it when their
// transmission is over (0.31 with a fresh wire per HELLO, 1.28 with a fresh
// wire per frame, 2.40 before that). A per-frame or per-event allocation
// creeping back into any layer multiplies these counts; a few objects per
// node do not trip them. What a world's construction makes per node is held
// on metro-seq's world, fig7-dapes at urban-metro's 50,003 nodes, built at a
// 1 ns horizon: 0.35 objects per node since a radio hands its frames to the
// node itself, not to a closure per node (1.35 with the closure, 6.22 before
// radios, walkers, pure forwarders and first grid buckets came from slabs);
// the budget is 1.25x, so one object per node coming back fails it. Serial
// on purpose: AllocsPerRun reads the process-wide counter, and parallel
// tests wait until every serial test is done. The 50k-node and sharded
// trials over their whole horizon are BENCHMARK.json's mallocs_m on
// metro-seq and metro-sharded.
func TestTrialAllocationBudget(t *testing.T) {
	metro := atMetroDensity(metroPlanScale())
	metro.Horizon = time.Nanosecond
	for _, tc := range []struct {
		scenario string
		scale    Scale
		budget   float64 // objects per trial, or per transmitted frame
		perFrame bool
		bytes    bool // bytes per transmitted frame instead
		perNode  bool // objects per node instead
	}{
		{"urban-grid", goldenScale(), 3_823 * 1.25, false, false, false},
		{"urban-grid-xl", goldenScale(), 10_222 * 1.25, false, false, false},
		{"fig7-dapes", ReducedScale(), 0.51 * 1.25, true, false, false},
		{"fig7-dapes", ReducedScale(), 148.1 * 1.05, true, true, false},
		{"fig7-bithoc", ReducedScale(), 0.28 * 1.25, true, false, false},
		{"fig7-dapes", metro, 0.35 * 1.25, false, false, true},
	} {
		sc, err := Find(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		var frames uint64
		run := func() {
			r, err := sc.Run(tc.scale, 60, 0)
			if err != nil {
				t.Fatal(err)
			}
			frames = r.Transmissions
		}
		var got float64
		unit := "objects per trial"
		if tc.bytes {
			// As AllocsPerRun: one run to warm up, one measured on one P.
			procs := runtime.GOMAXPROCS(1)
			var before, after runtime.MemStats
			run()
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			runtime.GOMAXPROCS(procs)
			got, unit = float64(after.TotalAlloc-before.TotalAlloc)/float64(frames), "bytes per transmitted frame"
		} else if got = testing.AllocsPerRun(1, run); tc.perFrame {
			got, unit = got/float64(frames), "objects per transmitted frame"
		} else if tc.perNode {
			got, unit = got/float64(fig7Nodes(tc.scale)), "objects per node"
		}
		t.Logf("%s: %.2f %s, budget %.2f", tc.scenario, got, unit, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.2f %s, budget %.2f", tc.scenario, got, unit, tc.budget)
		}
	}
}
