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
// regenerated once, in a commit of their own, at the declared rebaseline
// that moved every draw onto per-node sim.Streams (docs/CONTRACTS.md §1,
// docs/EXPERIMENTS.md "Rebaseline: per-node random streams"), and must
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
		{"fig7-dapes", ReducedScale(), 20, 0, PaperDefaults(), dapesGolden{448878523721, 50057, 24, 24, 15223, 0, 0, 47039, 1611, 5159, 11001997, 128591,
			relayCounts{1730, 4197, 773, 773, 0}, relayCounts{436, 1990, 105, 99, 2674}}},
		{"fig7-dapes", ReducedScale(), 20, 1, PaperDefaults(), dapesGolden{428363300838, 42049, 24, 24, 17590, 0, 0, 38740, 1233, 4311, 10099109, 105202,
			relayCounts{986, 4020, 588, 588, 0}, relayCounts{335, 1620, 82, 81, 1678}}},
		{"fig7-dapes", ReducedScale(), 60, 0, PaperDefaults(), dapesGolden{30256064472, 26962, 24, 24, 71329, 0, 0, 115648, 25584, 12899, 10899880, 185803,
			relayCounts{2929, 5022, 2691, 2691, 0}, relayCounts{496, 2248, 491, 389, 5133}}},
		{"fig7-dapes", ReducedScale(), 60, 1, PaperDefaults(), dapesGolden{55639790910, 43132, 24, 24, 74549, 0, 0, 164328, 20438, 18210, 13824714, 255909,
			relayCounts{5922, 5180, 4272, 4272, 0}, relayCounts{689, 3107, 515, 424, 8206}}},
		{"fig7-dapes", ReducedScale(), 100, 0, PaperDefaults(), dapesGolden{13695654456, 30702, 24, 24, 727217, 0, 0, 227130, 148936, 25389, 12121012, 439669,
			relayCounts{6130, 4922, 5584, 5584, 0}, relayCounts{665, 2735, 932, 610, 4599}}},
		{"fig7-dapes", ReducedScale(), 100, 1, PaperDefaults(), dapesGolden{16082016951, 30878, 24, 24, 604599, 0, 0, 208618, 112288, 23107, 12461603, 383913,
			relayCounts{7893, 3466, 6449, 6450, 0}, relayCounts{685, 3033, 937, 607, 4231}}},
		{"ablation-singlehop", ReducedScale(), 60, 0, singlehop, dapesGolden{54689059960, 25824, 24, 24, 66984, 0, 0, 118443, 7312, 13250, 7236682, 194000,
			relayCounts{0, 0, 0, 0, 0}, relayCounts{0, 0, 0, 0, 0}}},
		{"urban-grid", urbanGridScale(ReducedScale()), 60, 0, PaperDefaults(), dapesGolden{16571267240, 160665, 104, 104, 2006840, 0, 0, 1175218, 526135, 130325, 61401038, 2019319,
			relayCounts{19954, 38973, 19204, 19205, 0}, relayCounts{3222, 13470, 5163, 2941, 35315}}},
		// Crash is Stop plus a deaf radio, Restart wipes the tables.
		{"urban-grid-chaos", chaos, 60, 0, PaperDefaults(), dapesGolden{41462107758, 387075, 104, 104, 2904569, 52, 11049309547, 2749589, 1039499, 437422, 141453469, 4663167,
			relayCounts{38558, 44615, 36351, 36357, 0}, relayCounts{3393, 14397, 5297, 2997, 103317}}},
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
			ScenarioResult{"repository (Fig 8b)", 127144283480, 2213, SystemLoad{14.9375, 6348, 18175, 861}, true},
			phy.Stats{Transmissions: 2213, Deliveries: 3785, Collisions: 552, Lost: 172, BytesSent: 930061},
			7015,
		}
		if got := (fig8Golden{row, built[0].Stats(), built[0].EventsFired()}); got != want {
			t.Errorf("\n got %+v\nwant %+v", got, want)
		}
	})
}
