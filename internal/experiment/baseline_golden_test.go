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
// values were generated from the tree before the baseline stack's frame path
// was rewritten (phy receptions, routing frame views, transport segments,
// Bithoc piece selection) and must never be regenerated by a change that
// claims to be trace-neutral.
func TestGoldenBaselineTrialResults(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		wifiRange float64
		trial     int
		want      baselineGolden
	}{
		{20, 0, baselineGolden{592992934223, 78740, 24, 24, 69288, 3963, 7557, 18435256, 277812}},
		{20, 1, baselineGolden{792855569886, 95699, 24, 24, 80429, 4604, 8853, 21766433, 337199}},
		{60, 0, baselineGolden{103794941904, 59994, 24, 24, 259500, 24302, 28779, 19501347, 435023}},
		{60, 1, baselineGolden{114894720389, 62756, 24, 24, 263580, 22104, 29063, 19838169, 443190}},
		{100, 0, baselineGolden{93729748946, 82072, 24, 24, 754974, 133542, 83472, 29170549, 1131945}},
		{100, 1, baselineGolden{94252635801, 79704, 24, 24, 706651, 135732, 78651, 28741864, 1079207}},
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
		want := baselineGolden{300000000000, 98889, 0, 24, 419131, 38957, 46470, 10675014, 615494}
		if got := goldenOf(ektaTrial(s, 60, 0)); got != want {
			t.Errorf("\n got %+v\nwant %+v", got, want)
		}
	})
}
