package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"dapes/internal/phy"
	"dapes/internal/sim"
)

// TestGoldenWorldBuildsTheEngineItIsHanded is the constructor's own gate:
// every Engine field, alone and together, reaches the kernel and medium
// newWorld builds, whatever stripe count the scale still names.
func TestGoldenWorldBuildsTheEngineItIsHanded(t *testing.T) {
	t.Parallel()
	engines := []struct {
		name string
		e    Engine
	}{
		{"production", Engine{}},
		{"heap", Engine{Queue: sim.QueueHeap}},
		{"naive", Engine{Index: phy.IndexNaive}},
		{"every-reference", Engine{Queue: sim.QueueHeap, Index: phy.IndexNaive}},
	}
	for _, tc := range engines {
		for _, shards := range []int{0, 1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				s := goldenScale()
				s.Shards, s.Engine = shards, tc.e
				w, _ := newFig7World(s, 60, 0)
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
// Engine is the wheel and the grid, spelled out or not — one scenario from
// each family that builds worlds its own way.
func TestGoldenZeroEngineIsProduction(t *testing.T) {
	t.Parallel()
	explicit := Engine{Queue: sim.QueueWheel, Index: phy.IndexGrid}
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
