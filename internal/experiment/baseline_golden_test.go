package experiment

import (
	"fmt"
	"testing"
	"time"
)

// baselineGolden is everything one baseline trial is pinned on: the four
// TrialResult fields plus the medium and kernel counters behind them.
type baselineGolden struct {
	avgDownloadNs          int64
	transmissions          uint64
	completed, downloaders int
	deliveries, collisions uint64
	lost, bytesSent        uint64
	eventsFired            uint64
}

func goldenOf(res TrialResult, w *world) baselineGolden {
	st := w.Stats()
	return baselineGolden{
		avgDownloadNs: int64(res.AvgDownloadTime), transmissions: res.Transmissions,
		completed: res.Completed, downloaders: res.Downloaders,
		deliveries: st.Deliveries, collisions: st.Collisions,
		lost: st.Lost, bytesSent: st.BytesSent,
		eventsFired: w.EventsFired(),
	}
}

// TestGoldenBaselineTrialResults is the absolute golden for the IP
// baselines: every other gate on fig7-bithoc / fig7-ekta compares a run with
// a rerun, which a change to the shared frame path moves on both sides. The
// values were regenerated once, in a commit of their own, at the declared
// rebaseline that moved every draw onto per-node sim.Streams
// (docs/CONTRACTS.md §1) and must never be regenerated by a change that
// claims to be trace-neutral.
func TestGoldenBaselineTrialResults(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		wifiRange float64
		trial     int
		want      baselineGolden
	}{
		{20, 0, baselineGolden{989080451031, 108586, 24, 24, 86511, 4470, 9687, 24494897, 378545}},
		{20, 1, baselineGolden{918560121625, 102017, 24, 24, 84244, 4451, 9311, 23682184, 351794}},
		{60, 0, baselineGolden{115642699680, 67401, 24, 24, 283248, 27853, 31556, 21532442, 481298}},
		{60, 1, baselineGolden{115326288095, 59109, 24, 24, 236706, 19766, 26154, 19018104, 401026}},
		{100, 0, baselineGolden{87080076098, 75982, 24, 24, 737313, 182711, 81518, 28363763, 1153743}},
		{100, 1, baselineGolden{92124691535, 82304, 24, 24, 714311, 111144, 78975, 29174166, 1063398}},
	} {
		c := c
		t.Run(fmt.Sprintf("bithoc/range%v/trial%d", c.wifiRange, c.trial), func(t *testing.T) {
			t.Parallel()
			if got := goldenOf(bithocTrial(ReducedScale(), c.wifiRange, c.trial)); got != c.want {
				t.Errorf("\n got %+v\nwant %+v", got, c.want)
			}
		})
	}

	// A full-horizon Ekta trial costs seconds and completes nobody at this
	// scale; five virtual minutes of it exercise DSR, the DHT and the
	// datagram path through the same routing frames.
	t.Run("ekta/range60/trial0", func(t *testing.T) {
		t.Parallel()
		s := ReducedScale()
		s.Horizon = 5 * time.Minute
		want := baselineGolden{300000000000, 106401, 0, 24, 456611, 43436, 50324, 12482440, 669479}
		if got := goldenOf(ektaTrial(s, 60, 0)); got != want {
			t.Errorf("\n got %+v\nwant %+v", got, want)
		}
	})
}
