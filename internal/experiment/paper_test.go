package experiment

import (
	"testing"
	"time"

	"dapes/internal/core"
)

// TestPaperFig9aRandomStartBeatsSameStart pins Section VI-C's start-packet
// result on the selection code itself: with every peer breaking rarity ties
// by its own random permutation, first requests diversify across the swarm,
// and downloads finish sooner on fewer frames than when every peer starts at
// the same packet. Fig. 9a's setup (bitmaps-first, all bitmaps) at the
// reduced scale, range 60, local-neighbourhood RPF, means over 8 trials;
// measured when written: 33,461 vs 35,425 frames and 46.8 vs 48.1 s at seed
// 1 (33,740 vs 36,350; 36.9 vs 41.1 s at seed 2). Local-vs-encounter is
// deliberately not asserted: at this scale they differ by under 2% either
// way.
func TestPaperFig9aRandomStartBeatsSameStart(t *testing.T) {
	if testing.Short() {
		t.Skip("16 reduced-scale trials")
	}
	t.Parallel()
	s := ReducedScale()
	s.Trials = 8
	s.Workers = 4
	means := func(randomStart bool) (frames float64, download time.Duration) {
		_, _, trials, err := RunDAPES(s, 60, fig9aOpts(core.LocalNeighborhoodRPF, randomStart))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trials {
			frames += float64(tr.Transmissions) / float64(len(trials))
			download += tr.AvgDownloadTime / time.Duration(len(trials))
		}
		return frames, download
	}
	randomFrames, randomTime := means(true)
	sameFrames, sameTime := means(false)
	t.Logf("random start: %.0f frames, %v; same-packet start: %.0f frames, %v", randomFrames, randomTime, sameFrames, sameTime)
	if randomFrames >= sameFrames {
		t.Errorf("random start put %.0f frames on the air, same-packet start %.0f: want fewer", randomFrames, sameFrames)
	}
	if randomTime >= sameTime {
		t.Errorf("random start took %v per download, same-packet start %v: want faster", randomTime, sameTime)
	}
}

// TestPaperFig10DAPESBeatsIPBaselines pins the paper's headline, Fig. 10a
// and 10b: DAPES finishes sooner and on fewer transmissions than Bithoc and
// than Ekta. Through the calls Fig10 makes, at the quick scale, in every
// cell of ranges 40 and 80 m x seeds 1-3; measured when written, seed 1 at
// 80 m: 4.3 / 31.9 / 481 s and 7,070 / 20,051 / 222,395 frames.
func TestPaperFig10DAPESBeatsIPBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("18 quick-scale runs")
	}
	t.Parallel()
	s := QuickScale()
	for seed := int64(1); seed <= 3; seed++ {
		s.BaseSeed = seed
		for _, r := range s.Ranges {
			dapesTime, dapesFrames, _, err := RunDAPES(s, r, PaperDefaults())
			if err != nil {
				t.Fatal(err)
			}
			for _, base := range []struct {
				name string
				run  TrialFunc
			}{{"Bithoc", RunBithocTrial}, {"Ekta", RunEktaTrial}} {
				baseTime, baseFrames, err := runBaseline(s, r, base.run)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("seed %d, %.0f m: DAPES %v on %.0f frames, %s %v on %.0f", seed, r, dapesTime, dapesFrames, base.name, baseTime, baseFrames)
				if dapesTime >= baseTime {
					t.Errorf("seed %d, %.0f m: DAPES took %v, %s %v: want faster", seed, r, dapesTime, base.name, baseTime)
				}
				if dapesFrames >= baseFrames {
					t.Errorf("seed %d, %.0f m: DAPES put %.0f frames on the air, %s %.0f: want fewer", seed, r, dapesFrames, base.name, baseFrames)
				}
			}
		}
	}
}
