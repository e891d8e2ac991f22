package experiment

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"dapes/internal/fault"
)

// TestCatalogMatchesExperimentsDoc holds the catalog to its one
// description: the table is strictly sorted by name (so no name repeats),
// every entry can be listed and run, and its names are exactly the
// "## `Plan:` NAME" headings of docs/EXPERIMENTS.md.
func TestCatalogMatchesExperimentsDoc(t *testing.T) {
	t.Parallel()
	var names []string
	for i, sc := range catalog {
		if i > 0 && catalog[i-1].Name >= sc.Name {
			t.Errorf("catalog[%d] = %q follows %q: not strictly sorted", i, sc.Name, catalog[i-1].Name)
		}
		if sc.Summary == "" || sc.Run == nil {
			t.Errorf("scenario %q lacks a Summary or a Run", sc.Name)
		}
		names = append(names, sc.Name)
	}

	doc, err := os.ReadFile("../../docs/EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(doc), "\n") {
		if rest, ok := strings.CutPrefix(line, "## `Plan:` "); ok {
			headings = append(headings, strings.Fields(rest)[0])
		}
	}
	slices.Sort(headings)
	if !slices.Equal(names, headings) {
		t.Fatalf("catalog names %v\ndiffer from docs/EXPERIMENTS.md plan headings %v", names, headings)
	}
}

// TestFindSuggestsNearMisses pins the descriptive-error contract: unknown
// names answer with the closest registered scenarios, never a bare miss.
func TestFindSuggestsNearMisses(t *testing.T) {
	t.Parallel()
	sc, err := Find("fig7-dapes")
	if err != nil || sc == nil || sc.Name != "fig7-dapes" {
		t.Fatalf("Find(fig7-dapes) = %v, %v", sc, err)
	}

	// One edit away: the error must name the intended scenario.
	_, err = Find("fig7-dappes")
	if err == nil {
		t.Fatal("Find accepted a typo'd scenario name")
	}
	if !strings.Contains(err.Error(), `"fig7-dappes"`) || !strings.Contains(err.Error(), "fig7-dapes") {
		t.Fatalf("Find error lacks the typo and the suggestion: %v", err)
	}

	// Substring of a registered name: suggested too.
	_, err = Find("urban")
	if err == nil || !strings.Contains(err.Error(), "urban-grid") {
		t.Fatalf("Find(urban) error lacks urban-grid suggestion: %v", err)
	}

	// Nothing near: still a descriptive error pointing at -list.
	_, err = Find("zzzzzzzzzzzz")
	if err == nil || !strings.Contains(err.Error(), "-list") {
		t.Fatalf("Find(zzz...) error = %v, want -list pointer", err)
	}
}

// TestPartitionedMergeHealsPartition checks the new scenario's point: the
// disconnected cluster only completes after the merge time.
func TestPartitionedMergeHealsPartition(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	tr, err := partitionedMergeTrial(s, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Downloaders < 6 {
		t.Fatalf("downloaders = %d, want two clusters of >= 3", tr.Downloaders)
	}
	if tr.Completed < tr.Downloaders*3/4 {
		t.Fatalf("only %d/%d completed after merge", tr.Completed, tr.Downloaders)
	}
	// Cluster B cannot start before Horizon/3, so the average completion
	// (which includes all of cluster B) must land after the merge point
	// divided across both clusters — i.e. the run can't finish instantly.
	if tr.AvgDownloadTime < s.Horizon/12 {
		t.Fatalf("avg download %v implausibly early for a partitioned start", tr.AvgDownloadTime)
	}
}

func TestConvoyChurnMostRidersComplete(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	tr, err := convoyChurnTrial(s, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Downloaders < 4 {
		t.Fatalf("riders = %d, want >= 4", tr.Downloaders)
	}
	if tr.Completed < tr.Downloaders/2 {
		t.Fatalf("only %d/%d riders completed under churn", tr.Completed, tr.Downloaders)
	}
}

func TestUrbanGridScalesNodeCount(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	// Keep the 5x multiplication cheap: 2 mobile -> 10, plus 4 stationary.
	s.MobileDown = 2
	s.PureForwarders = 1
	s.Intermediates = 1
	s.Horizon = 15 * time.Minute
	sc, err := Find("urban-grid")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sc.Run(s, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Stationary + 5*s.MobileDown; tr.Downloaders != want {
		t.Fatalf("downloaders = %d, want %d (5x mobile)", tr.Downloaders, want)
	}
	if tr.Completed < tr.Downloaders/2 {
		t.Fatalf("only %d/%d completed in the dense grid", tr.Completed, tr.Downloaders)
	}
}

// TestEveryAxisMovesItsWorld: a world reads every input it does not declare
// fixed, and none it does. Each catalog scenario runs one trial at seed 1
// and a small scale, then again with the range, the loss rate, the node mix,
// the area, the fault plan and the design changed one at a time: an input the scenario
// refuses (Refuses: an axis in its Fixed, the loss rate where the trial's
// fault plan is bursty, a fault plan where it applies none) must leave the
// trial's result byte for byte as it was, and every other input must change
// it. A fixed axis a world reads would run under a label it
// never declared; an undeclared axis it ignores would label identical runs
// with different values.
func TestEveryAxisMovesItsWorld(t *testing.T) {
	t.Parallel()
	base := tinyScale()
	base.NumFiles = 1
	base.Horizon = 2 * time.Minute
	// Enough peers that a doubled mix moves the clustered scenarios'
	// cluster size, (stationary + mobile downloaders) / 4, off its floor of 3.
	base.Stationary, base.MobileDown, base.PureForwarders, base.Intermediates = 2, 12, 2, 2
	const baseRange = 60.0
	perturb := []struct {
		axis  Axis
		apply func(s *Scale, wifiRange *float64)
	}{
		{AxisRange, func(_ *Scale, r *float64) { *r = 90 }},
		{AxisLoss, func(s *Scale, _ *float64) { s.LossRate = 0.3 }},
		{AxisNodes, func(s *Scale, _ *float64) {
			s.Stationary, s.MobileDown, s.PureForwarders, s.Intermediates =
				2*s.Stationary, 2*s.MobileDown, 2*s.PureForwarders, 2*s.Intermediates
		}},
		// No scenario's own arena edge (300, 450 or 900 m, or urban-metro's
		// density-preserving side).
		{AxisArea, func(s *Scale, _ *float64) { s.AreaSide = 520 }},
		// A jammer over every node for longer than the horizon.
		{AxisFaults, func(s *Scale, _ *float64) { s.Faults = &fault.Plan{JamRadius: 10000, JamUntil: 2 * time.Hour} }},
		// Two knobs, so a world moves whichever of them it exercises.
		{AxisDesign, func(s *Scale, _ *float64) { s.Design.ForwardProb, s.Design.UsePEBA = 0.6, false }},
	}
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			trial := func(s Scale, wifiRange float64) string {
				tr, err := sc.Run(s, wifiRange, 0)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%+v", tr)
			}
			want := trial(base, baseRange)
			for _, p := range perturb {
				s, r := base, baseRange
				p.apply(&s, &r)
				got := trial(s, r)
				fixed := sc.Refuses(s, p.axis) != ""
				switch moved := got != want; {
				case fixed && moved:
					t.Errorf("declares its %s fixed, but changing it moves the trial:\n got %s\nwant %s", p.axis, got, want)
				case !fixed && !moved:
					t.Errorf("reads its %s (not in Fixed), but changing it leaves the trial as it was: %s", p.axis, got)
				}
			}
		})
	}
}
