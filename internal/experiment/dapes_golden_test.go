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
// code, which a change to that code moves on both sides. The values are
// regenerated only in a commit of their own, at a declared rebaseline
// (docs/CONTRACTS.md §1; docs/history/rebaselines.md "Rebaseline: per-node
// random streams", "Rebaseline: relay state by time" and "Rebaseline: one
// event per transmission"), and never by a change that claims to be
// trace-neutral.
func TestGoldenDAPESTrialResults(t *testing.T) {
	t.Parallel()
	// The chaos plan scales with the horizon and the trial runs until its
	// last restart: three minutes put the crashes in [30 s, 60 s), mid-
	// download for most peers, and keep the trial to seconds.
	singlehop := ReducedScale()
	singlehop.Design.Multihop = false
	chaos := ReducedScale()
	chaos.Horizon = 3 * time.Minute
	chaos = urbanGridChaosScale(chaos)
	for _, c := range []struct {
		name      string
		scale     Scale
		wifiRange float64
		trial     int
		want      dapesGolden
	}{
		{"fig7-dapes", ReducedScale(), 20, 0, dapesGolden{472980382657, 50768, 24, 24, 13143, 0, 0, 46818, 1416, 5133, 10899676, 107422,
			relayCounts{1650, 4575, 695, 695, 0}, relayCounts{395, 2061, 79, 72, 2697}}},
		{"fig7-dapes", ReducedScale(), 20, 1, dapesGolden{449618656891, 42491, 24, 24, 11450, 0, 0, 38260, 1162, 4284, 9983875, 88635,
			relayCounts{965, 4455, 508, 508, 0}, relayCounts{332, 1640, 67, 66, 1556}}},
		{"fig7-dapes", ReducedScale(), 60, 0, dapesGolden{28730677829, 26544, 24, 24, 60515, 0, 0, 114237, 24804, 12751, 10779201, 57642,
			relayCounts{3149, 4666, 2753, 2753, 0}, relayCounts{500, 2164, 448, 382, 5041}}},
		{"fig7-dapes", ReducedScale(), 60, 1, dapesGolden{68863866502, 45072, 24, 24, 48573, 0, 0, 175157, 18396, 19410, 13441741, 99824,
			relayCounts{5875, 6156, 3809, 3809, 0}, relayCounts{736, 3523, 453, 404, 8672}}},
		{"fig7-dapes", ReducedScale(), 100, 0, dapesGolden{13390956922, 28062, 24, 24, 253805, 0, 0, 202425, 140504, 22632, 11629098, 63080,
			relayCounts{6049, 4859, 5488, 5490, 0}, relayCounts{627, 2691, 766, 550, 3977}}},
		{"fig7-dapes", ReducedScale(), 100, 1, dapesGolden{16697003164, 31442, 24, 24, 188552, 0, 0, 214484, 110905, 23749, 12363567, 72093,
			relayCounts{8108, 3459, 6367, 6372, 0}, relayCounts{693, 3023, 806, 565, 4464}}},
		{"ablation-singlehop", singlehop, 60, 0, dapesGolden{54689059960, 25824, 24, 24, 25116, 0, 0, 118444, 7312, 13250, 7236682, 79499,
			relayCounts{0, 0, 0, 0, 0}, relayCounts{0, 0, 0, 0, 0}}},
		{"urban-grid", urbanGridScale(ReducedScale()), 60, 0, dapesGolden{16855534200, 158721, 104, 104, 941595, 0, 0, 1181698, 496911, 131100, 59639022, 343042,
			relayCounts{19199, 41937, 18108, 18108, 0}, relayCounts{3356, 14056, 4470, 2966, 35764}}},
		// Crash is Stop plus a deaf radio, Restart wipes the tables.
		{"urban-grid-chaos", chaos, 60, 0, dapesGolden{40019158568, 390256, 104, 104, 695503, 52, 11249199002, 2766725, 1072987, 440113, 146019734, 829108,
			relayCounts{40796, 40811, 38328, 38329, 0}, relayCounts{3237, 13687, 4416, 2840, 104419}}},
	} {
		c := c
		t.Run(fmt.Sprintf("%s/range%v/trial%d", c.name, c.wifiRange, c.trial), func(t *testing.T) {
			t.Parallel()
			w, err := buildDAPES(c.scale, c.wifiRange, c.trial)
			if err != nil {
				t.Fatal(err)
			}
			if got := dapesGoldenOf(t, w); got != c.want {
				t.Errorf("\n got %+v\nwant %+v", got, c.want)
			}
		})
	}

	// The Fig.-8 worlds are built inside their scenario functions, so their
	// peers are out of reach: the row (whose state bytes fold every peer's
	// MemoryFootprint, the three relay table sizes included), the medium
	// counters and EventsFired are what can be pinned.
	type fig8Golden struct {
		row         ScenarioResult
		medium      phy.Stats
		eventsFired uint64
	}
	for _, c := range []struct {
		name string
		run  func(Scale, int64) (ScenarioResult, error)
		want fig8Golden
	}{
		{"fig8a-carrier", Scenario1Carrier, fig8Golden{
			ScenarioResult{"carrier (Fig 8a)", 319073198305, 2654, 2403, 1158, true},
			phy.Stats{Transmissions: 2654, Deliveries: 2403, Collisions: 7, Lost: 110, BytesSent: 912237},
			5348,
		}},
		{"fig8b-repository", Scenario2Repo, fig8Golden{
			ScenarioResult{"repository (Fig 8b)", 126622511185, 2192, 3744, 7180, true},
			phy.Stats{Transmissions: 2192, Deliveries: 3744, Collisions: 531, Lost: 171, BytesSent: 914810},
			4606,
		}},
		{"fig8c-mobile", Scenario3Mobile, fig8Golden{
			ScenarioResult{"mobile swarm (Fig 8c)", 115895664645, 1401, 3089, 7552, true},
			phy.Stats{Transmissions: 1401, Deliveries: 3089, Collisions: 475, Lost: 153, BytesSent: 692630},
			3081,
		}},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s := ReducedScale()
			var built []*world
			s.Engine.built = &built
			row, err := c.run(s, TrialSeed(s.BaseSeed, 0))
			if err != nil {
				t.Fatal(err)
			}
			if len(built) != 1 {
				t.Fatalf("built %d worlds, want 1", len(built))
			}
			if got := (fig8Golden{row, built[0].Stats(), built[0].EventsFired()}); got != c.want {
				t.Errorf("\n got %+v\nwant %+v", got, c.want)
			}
		})
	}

	// The custom scenarios build their worlds inside their trial functions
	// too: the TrialResult, the medium counters and EventsFired are pinned.
	type trialGolden struct {
		res         TrialResult
		medium      phy.Stats
		eventsFired uint64
	}
	for _, c := range []struct {
		name string
		want trialGolden
	}{
		{"partitioned-merge", trialGolden{
			TrialResult{AvgDownloadTime: 516629117614, Transmissions: 71932, Completed: 12, Downloaders: 12, ForwardAccuracy: 0.9887157442235357, MemoryBytes: 60092},
			phy.Stats{Transmissions: 71932, Deliveries: 336618, Collisions: 59967, Lost: 37399, BytesSent: 11924267},
			147062,
		}},
		{"convoy-churn", trialGolden{
			TrialResult{AvgDownloadTime: 87993789580, Transmissions: 7700, Completed: 7, Downloaders: 7, ForwardAccuracy: 0.9292452830188679, MemoryBytes: 2596},
			phy.Stats{Transmissions: 7700, Deliveries: 12116, Collisions: 603, Lost: 1356, BytesSent: 2816583},
			15928,
		}},
	} {
		c := c
		t.Run(c.name+"/range60/trial0", func(t *testing.T) {
			t.Parallel()
			sc, err := Find(c.name)
			if err != nil {
				t.Fatal(err)
			}
			s := ReducedScale()
			var built []*world
			s.Engine.built = &built
			res, err := sc.Run(s, 60, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(built) != 1 {
				t.Fatalf("built %d worlds, want 1", len(built))
			}
			if got := (trialGolden{res, built[0].Stats(), built[0].EventsFired()}); got != c.want {
				t.Errorf("\n got %+v\nwant %+v", got, c.want)
			}
		})
	}

	// Table I's row i and the catalog's matching fig8* trial at seed
	// BaseSeed+i are one run reported twice: the trial counts the world as
	// one downloader, complete only when the row is.
	t.Run("tableI-is-the-catalog-fig8-trials", func(t *testing.T) {
		t.Parallel()
		s := ReducedScale()
		rows, err := TableIRows(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"fig8a-carrier", "fig8b-repository", "fig8c-mobile"} {
			sc, err := Find(name)
			if err != nil {
				t.Fatal(err)
			}
			at := s
			at.BaseSeed = s.BaseSeed + int64(i)
			tr, err := sc.Run(at, 60, 0)
			if err != nil {
				t.Fatal(err)
			}
			row := rows[i]
			if tr.AvgDownloadTime != row.DownloadTime || tr.Transmissions != row.Transmissions ||
				tr.MemoryBytes != row.StateBytes || (tr.Completed == 1) != row.Completed || tr.Downloaders != 1 {
				t.Errorf("%s at seed %d: trial %+v is not Table I row %d %+v", name, at.BaseSeed, tr, i, row)
			}
		}
	})
}
