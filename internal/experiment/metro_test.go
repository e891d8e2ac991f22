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

		fig7 := s
		fig7.MobileDown *= 25
		fig7.PureForwarders *= 25
		fig7.Intermediates *= 25
		nodes := 1 + fig7.Stationary + fig7.MobileDown + fig7.PureForwarders + fig7.Intermediates
		fig7.AreaSide = 300 * math.Sqrt(float64(nodes)/45)
		want, err := RunDAPESTrial(fig7, 60, 0, PaperDefaults())
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

// BenchmarkUrbanMetro runs the urban-metro scenario at the exact [scale] of
// plans/urban-metro.toml — 50,003 nodes, 10 s horizon — through the
// registry. Timing with spread is BENCHMARK.json's metro workloads; `make
// bench` runs this once per CI build so the 50k-node path cannot rot.
func BenchmarkUrbanMetro(b *testing.B) {
	metro := ReducedScale()
	metro.Trials = 1
	metro.NumFiles, metro.PacketsPerFile, metro.PacketSize = 1, 4, 200
	metro.Horizon = 10 * time.Second
	metro.Stationary, metro.MobileDown, metro.PureForwarders, metro.Intermediates = 2, 8, 1912, 80
	metro.BaseSeed = 11
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
