package experiment

import (
	"fmt"
	"testing"
	"time"

	"dapes/internal/core"
	"dapes/internal/phy"
)

// relayCounts are the Section-V counters of one node kind, summed.
type relayCounts struct {
	forwarded, suppressed, dataForwarded, answered, csReplies uint64
}

// dapesGolden is everything one DAPES trial is pinned on: the TrialResult
// (ForwardAccuracy as its numerator and denominator, which the counter sums
// below carry), the medium and kernel counters behind it, and the forwarding
// counters per node kind — ForwardAccuracy alone would hide a numerator that
// moved with its denominator.
type dapesGolden struct {
	avgDownloadNs          int64
	transmissions          uint64
	completed, downloaders int
	memoryBytes, crashed   int
	recoveryNs             int64
	deliveries, collisions uint64
	lost, bytesSent        uint64
	eventsFired            uint64
	peers, pures           relayCounts
}

func dapesGoldenOf(t *testing.T, w *dapesWorld) dapesGolden {
	t.Helper()
	defer w.Close()
	res := w.run()
	st := w.Stats()
	g := dapesGolden{
		avgDownloadNs: int64(res.AvgDownloadTime), transmissions: res.Transmissions,
		completed: res.Completed, downloaders: res.Downloaders,
		memoryBytes: res.MemoryBytes, crashed: res.Crashed, recoveryNs: int64(res.Recovery),
		deliveries: st.Deliveries, collisions: st.Collisions,
		lost: st.Lost, bytesSent: st.BytesSent,
		eventsFired: w.EventsFired(),
	}
	if st.Transmissions != res.Transmissions {
		t.Errorf("medium counted %d transmissions, the result reports %d", st.Transmissions, res.Transmissions)
	}
	for _, ps := range [][]*core.Peer{w.downloaders, w.intermediates} {
		for _, p := range ps {
			s := p.Stats()
			g.peers.forwarded += s.InterestsForwarded
			g.peers.suppressed += s.InterestsSuppressed
			g.peers.dataForwarded += s.DataForwarded
			g.peers.answered += s.ForwardedAnswered
		}
	}
	for _, f := range w.pures {
		s := f.Stats()
		g.pures.forwarded += s.InterestsForwarded
		g.pures.suppressed += s.InterestsSuppressed
		g.pures.dataForwarded += s.DataForwarded
		g.pures.answered += s.ForwardedAnswered
		g.pures.csReplies += s.CsReplies
	}
	acc := 0.0
	if fwd := g.peers.forwarded + g.pures.forwarded; fwd > 0 {
		acc = float64(g.peers.answered+g.pures.answered) / float64(fwd)
	}
	if res.ForwardAccuracy != acc {
		t.Errorf("ForwardAccuracy = %v, the counters give %v", res.ForwardAccuracy, acc)
	}
	return g
}

// TestGoldenDAPESTrialResults is the absolute golden for the DAPES stack:
// every other DAPES gate compares two engines running the same protocol
// code, which a change to that code moves on both sides. The values were
// generated from the tree before the Section-V forwarding state (nonce
// dedup, forwarded-Interest table, suppression timers, reply queue) moved
// out of core.Peer and multihop.PureForwarder into multihop.Relay, and must
// never be regenerated by a change that claims to be trace-neutral.
func TestGoldenDAPESTrialResults(t *testing.T) {
	t.Parallel()
	singlehop := PaperDefaults()
	singlehop.Multihop = false
	// The chaos plan scales with the horizon and the trial runs until its
	// last restart: three minutes put the crashes in [30 s, 60 s), mid-
	// download for most peers, and keep the trial to seconds.
	chaos := ReducedScale()
	chaos.Horizon = 3 * time.Minute
	chaos = urbanGridChaosScale(chaos)
	for _, c := range []struct {
		name      string
		scale     Scale
		wifiRange float64
		trial     int
		opts      DAPESOptions
		want      dapesGolden
	}{
		{"fig7-dapes", ReducedScale(), 20, 0, PaperDefaults(), dapesGolden{407498100011, 48778, 24, 24, 28746, 0, 0, 45266, 1402, 5028, 10895888, 123223,
			relayCounts{1437, 4314, 652, 652, 0}, relayCounts{336, 1714, 73, 70, 2248}}},
		{"fig7-dapes", ReducedScale(), 20, 1, PaperDefaults(), dapesGolden{533153696418, 54799, 24, 24, 12505, 0, 0, 49051, 1461, 5487, 11512003, 138075,
			relayCounts{1779, 5107, 799, 799, 0}, relayCounts{410, 2162, 85, 85, 2638}}},
		{"fig7-dapes", ReducedScale(), 60, 0, PaperDefaults(), dapesGolden{32164088305, 29925, 24, 24, 142757, 0, 0, 113432, 22099, 12482, 13226949, 185552,
			relayCounts{5625, 3764, 4875, 4875, 0}, relayCounts{543, 2662, 448, 413, 4076}}},
		{"fig7-dapes", ReducedScale(), 60, 1, PaperDefaults(), dapesGolden{63793160811, 37138, 24, 24, 290646, 0, 0, 142693, 22996, 15595, 14137252, 228492,
			relayCounts{6652, 5087, 4891, 4891, 0}, relayCounts{678, 3226, 544, 463, 5895}}},
		{"fig7-dapes", ReducedScale(), 100, 0, PaperDefaults(), dapesGolden{11820056040, 27520, 24, 24, 366123, 0, 0, 165834, 134173, 18319, 12930340, 354240,
			relayCounts{7447, 2458, 6677, 6681, 0}, relayCounts{626, 2392, 849, 576, 3109}}},
		{"fig7-dapes", ReducedScale(), 100, 1, PaperDefaults(), dapesGolden{12043573579, 28549, 24, 24, 472697, 0, 0, 181916, 115836, 19891, 12908973, 354024,
			relayCounts{6655, 2723, 6150, 6150, 0}, relayCounts{555, 2444, 586, 528, 4199}}},
		{"ablation-singlehop", ReducedScale(), 60, 0, singlehop, dapesGolden{44606701049, 17229, 24, 24, 76539, 0, 0, 71058, 5544, 7880, 6289644, 108156,
			relayCounts{0, 0, 0, 0, 0}, relayCounts{0, 0, 0, 0, 0}}},
		{"urban-grid", urbanGridScale(ReducedScale()), 60, 0, PaperDefaults(), dapesGolden{14029287770, 163366, 104, 104, 1700306, 0, 0, 1067687, 528469, 117946, 69201194, 1911042,
			relayCounts{27187, 25366, 25680, 25681, 0}, relayCounts{2878, 11839, 4303, 2615, 32275}}},
		// Crash is Stop plus a deaf radio, Restart wipes the tables.
		{"urban-grid-chaos", chaos, 60, 0, PaperDefaults(), dapesGolden{39023021162, 396477, 104, 104, 1492197, 52, 10659641632, 2619344, 1022425, 417028, 156781212, 4512350,
			relayCounts{47288, 26413, 44290, 44290, 0}, relayCounts{2898, 12281, 4328, 2646, 102102}}},
	} {
		c := c
		t.Run(fmt.Sprintf("%s/range%v/trial%d", c.name, c.wifiRange, c.trial), func(t *testing.T) {
			t.Parallel()
			w, err := buildDAPES(c.scale, c.wifiRange, c.trial, c.opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := dapesGoldenOf(t, w); got != c.want {
				t.Errorf("\n got %+v\nwant %+v", got, c.want)
			}
		})
	}

	// The Fig.-8 worlds are built inside their scenario functions, so their
	// peers are out of reach: the row (whose load block folds EventsFired
	// and every peer's MemoryFootprint, the three relay table sizes
	// included) and the medium counters are what can be pinned.
	t.Run("fig8b-repository", func(t *testing.T) {
		t.Parallel()
		s := ReducedScale()
		var built []*world
		s.Engine.built = &built
		row, err := Scenario2Repo(s, TrialSeed(s.BaseSeed, 0))
		if err != nil {
			t.Fatal(err)
		}
		if len(built) != 1 {
			t.Fatalf("built %d worlds, want 1", len(built))
		}
		type fig8Golden struct {
			row         ScenarioResult
			medium      phy.Stats
			eventsFired uint64
		}
		want := fig8Golden{
			ScenarioResult{"repository (Fig 8b)", 121104541433, 1969, SystemLoad{14.75, 5479, 15784, 711}, true},
			phy.Stats{Transmissions: 1969, Deliveries: 3214, Collisions: 369, Lost: 150, BytesSent: 829321},
			5921,
		}
		if got := (fig8Golden{row, built[0].Stats(), built[0].EventsFired()}); got != want {
			t.Errorf("\n got %+v\nwant %+v", got, want)
		}
	})
}
