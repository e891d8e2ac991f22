package experiment

import (
	"bytes"
	"reflect"
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
// scale, budget 1.25x the count measured once every stored or relayed Data
// reached its receivers as the sender's own record (urban-grid 4,925,
// urban-grid-xl 13,434; 5,417 and 14,099 with a decode per Data
// transmission, 9,144 and 27,995 before a heard Interest was decoded into
// its pooled transmission record). The paper's own world, fig7-dapes at the
// reduced scale the benchmark sweeps (range 60, trial 0: 26,962 frames), is
// held in objects per transmitted frame: 1.18 since stored and relayed Data
// share the sender's record (1.62 with a decode per Data transmission, 1.99
// with a fresh wire per Interest, 2.50 before that); the budget is 1.25x.
// The IP baseline's world, fig7-bithoc at the same scale and cell, is held
// the same way: 0.28 objects per frame since all its wires, HELLOs
// included, come from the medium's pool and go back to it when their
// transmission is over (0.31 with a fresh wire per HELLO, 1.28 with a fresh
// wire per frame, 2.40 before that). A per-frame or per-event allocation
// creeping back into any layer multiplies these counts; a few objects per
// node do not trip them. Serial on purpose: AllocsPerRun reads
// the process-wide counter, and parallel tests wait until every serial test
// is done. The 50k-node and sharded trials are BENCHMARK.json's mallocs_m on
// metro-seq and metro-sharded.
func TestTrialAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		scale    Scale
		budget   float64 // objects per trial, or per transmitted frame
		perFrame bool
	}{
		{"urban-grid", goldenScale(), 4_925 * 1.25, false},
		{"urban-grid-xl", goldenScale(), 13_434 * 1.25, false},
		{"fig7-dapes", ReducedScale(), 1.18 * 1.25, true},
		{"fig7-bithoc", ReducedScale(), 0.28 * 1.25, true},
	} {
		sc, err := Find(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		var frames uint64
		got := testing.AllocsPerRun(1, func() {
			r, err := sc.Run(tc.scale, 60, 0)
			if err != nil {
				t.Fatal(err)
			}
			frames = r.Transmissions
		})
		unit := "objects per trial"
		if tc.perFrame {
			got, unit = got/float64(frames), "objects per transmitted frame"
		}
		t.Logf("%s: %.2f %s, budget %.2f", tc.scenario, got, unit, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.2f %s, budget %.2f", tc.scenario, got, unit, tc.budget)
		}
	}
}
