package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"dapes/internal/phy"
	"dapes/internal/sim"
)

// TestGoldenWorldBuildsTheEngineItIsHanded is the constructor's own gate:
// every Engine field, alone and all together, reaches every kernel and
// medium newWorld builds — on the sequential kernel, on one stripe and on
// four — and Sequential overrides any stripe count.
func TestGoldenWorldBuildsTheEngineItIsHanded(t *testing.T) {
	t.Parallel()
	engines := []struct {
		name string
		e    Engine
	}{
		{"production", Engine{}},
		{"heap", Engine{Queue: sim.QueueHeap}},
		{"naive", Engine{Index: phy.IndexNaive}},
		{"sequential", Engine{Sequential: true}},
		{"serial", Engine{SerialWindows: true}},
		{"lockstep", Engine{Windowing: sim.WindowLockstep}},
		{"every-reference", Engine{Queue: sim.QueueHeap, Index: phy.IndexNaive, SerialWindows: true, Windowing: sim.WindowLockstep}},
	}
	for _, tc := range engines {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				s := goldenScale()
				s.Shards, s.Engine = shards, tc.e
				w, _ := newFig7World(s, 60, 0, s.Shards, 0)
				defer w.Close()
				assertEngine(t, "fig7-dapes", s, []*world{w})
			})
		}
	}
}

// emitJSON runs one registered scenario on one goroutine and returns its
// result, the emitted JSON, and the worlds it built.
func emitJSON(t *testing.T, name string, s Scale, wifiRange float64) (RunResult, []byte, []*world) {
	t.Helper()
	var built []*world
	s.Engine.built = &built
	s.Workers = 1 // the built log is unlocked
	res, err := Runner{}.RunScenario(name, s, wifiRange)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var buf bytes.Buffer
	if err := EmitRun(&buf, FormatJSON, res); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes(), built
}

// TestGoldenZeroEngineIsProduction pins what "production" means: the zero
// Engine is the wheel, the grid, parallel batched windows and the
// scenario's own stripe count, spelled out or not — one scenario from each
// family that builds worlds its own way.
func TestGoldenZeroEngineIsProduction(t *testing.T) {
	t.Parallel()
	explicit := Engine{Queue: sim.QueueWheel, Index: phy.IndexGrid, Windowing: sim.WindowBatched}
	if explicit != (Engine{}) {
		t.Fatalf("the zero Engine %+v is not the production engine %+v", Engine{}, explicit)
	}
	for _, name := range []string{"fig7-dapes", "fig7-bithoc", "fig8a-carrier", "convoy-churn", "urban-metro"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			zero, spelled := goldenScale(), goldenScale()
			spelled.Engine = explicit
			_, zeroJSON, built := emitJSON(t, name, zero, 60)
			assertEngine(t, name, zero, built)
			if _, spelledJSON, _ := emitJSON(t, name, spelled, 60); !bytes.Equal(zeroJSON, spelledJSON) {
				t.Errorf("zero engine diverged from the spelled-out production engine:\n%s\n%s", zeroJSON, spelledJSON)
			}
		})
	}
}

// TestGoldenShardedStripeCountIsBounded: stripes are whole range-wide
// columns, so asking for more than the arena has is asking for the column
// count — not for idle kernels the coordinator polls every window, and not
// for a quadratic handoff table (a six-digit -shards used to be
// OOM-killed). A 300 m arena at 100 m range has three columns.
func TestGoldenShardedStripeCountIsBounded(t *testing.T) {
	t.Parallel()
	const columns = 3
	var want []byte
	for _, shards := range []int{columns, columns + 3, 200_000} {
		s := goldenScale()
		s.Shards = shards
		_, got, built := emitJSON(t, "fig7-dapes", s, 100)
		if n := built[0].sk.Shards(); n != columns {
			t.Errorf("%d shards asked: built %d stripes, want the %d columns", shards, n, columns)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%d shards diverged from %d:\n%s\n%s", shards, columns, got, want)
		}
	}
}
