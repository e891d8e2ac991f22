package experiment

import (
	"math"
	"testing"
	"time"
)

// TestUrbanMetroIsFig7AtDensity pins what urban-metro is: the Fig.-7 DAPES
// trial on the 25x node mix in an area whose edge grows with sqrt(nodes).
// A run of the scenario — with a stripe count still set, as BENCHMARK.json's
// metro-sharded workload sets one — must equal RunDAPESTrial on that scale
// built by hand, as metro-seq builds it, field for field at every seed.
func TestUrbanMetroIsFig7AtDensity(t *testing.T) {
	t.Parallel()
	sc, err := Find("urban-metro")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := goldenScale()
		s.BaseSeed = seed

		metro := s
		metro.Shards = 4
		got, err := sc.Run(metro, 60, 0)
		if err != nil {
			t.Fatal(err)
		}

		want, err := RunDAPESTrial(atMetroDensity(s), 60, 0)
		if err != nil {
			t.Fatal(err)
		}

		if got != want {
			t.Errorf("seed %d: urban-metro diverged from fig7-dapes at its scale:\nurban-metro: %+v\nfig7-dapes:  %+v", seed, got, want)
		}
		if want.Transmissions == 0 || want.Downloaders != s.Stationary+25*s.MobileDown {
			t.Errorf("seed %d: degenerate world (%d frames, %d downloaders)", seed, want.Transmissions, want.Downloaders)
		}
	}
}

// atMetroDensity is the scale urban-metro runs fig7-dapes at: the 25x
// mobile mix in an area whose edge grows with sqrt(nodes).
func atMetroDensity(s Scale) Scale {
	s.MobileDown *= 25
	s.PureForwarders *= 25
	s.Intermediates *= 25
	s.AreaSide = 300 * math.Sqrt(float64(fig7Nodes(s))/45)
	return s
}

// fig7Nodes is how many nodes fig7-dapes attaches at s.
func fig7Nodes(s Scale) int {
	return 1 + s.Stationary + s.MobileDown + s.PureForwarders + s.Intermediates
}

// metroPlanScale is the exact [scale] of plans/urban-metro.toml: 50,003
// nodes, 10 s horizon.
func metroPlanScale() Scale {
	metro := ReducedScale()
	metro.Trials = 1
	metro.NumFiles, metro.PacketsPerFile, metro.PacketSize = 1, 4, 200
	metro.Horizon = 10 * time.Second
	metro.Stationary, metro.MobileDown, metro.PureForwarders, metro.Intermediates = 2, 8, 1912, 80
	metro.BaseSeed = 11
	return metro
}

// BenchmarkUrbanMetro runs the urban-metro scenario at metroPlanScale through
// the registry. Timing with spread is BENCHMARK.json's metro workloads;
// `make bench` runs this once per CI build so the 50k-node path cannot rot.
func BenchmarkUrbanMetro(b *testing.B) {
	benchmarkMetro(b, metroPlanScale())
}

// BenchmarkWorldBuild is BenchmarkUrbanMetro at a 1 ns horizon: the 50k-node
// world is built, its collection hashed and its peers started, and nothing
// goes on the air. Its allocations are the construction path's.
func BenchmarkWorldBuild(b *testing.B) {
	metro := metroPlanScale()
	metro.Horizon = time.Nanosecond
	b.ReportAllocs()
	benchmarkMetro(b, metro)
}

func benchmarkMetro(b *testing.B, metro Scale) {
	sc, err := Find("urban-metro")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(metro, 60, 0); err != nil {
			b.Fatal(err)
		}
	}
}
