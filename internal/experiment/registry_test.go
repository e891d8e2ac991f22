package experiment

import (
	"sort"
	"strings"
	"testing"
	"time"
)

func TestRegistryListingAndLookup(t *testing.T) {
	t.Parallel()
	scs := Scenarios()
	if len(scs) < 8 {
		t.Fatalf("registry holds %d scenarios, want >= 8", len(scs))
	}
	names := make([]string, len(scs))
	for i, sc := range scs {
		names[i] = sc.Name
		if sc.Summary == "" || sc.Narrative == "" || sc.Optimizes == "" {
			t.Errorf("scenario %q is missing documentation fields", sc.Name)
		}
		if sc.Run == nil {
			t.Errorf("scenario %q has no Run", sc.Name)
		}
		got, ok := Lookup(sc.Name)
		if !ok || got != sc {
			t.Errorf("Lookup(%q) did not round-trip", sc.Name)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Scenarios() not sorted: %v", names)
	}
	for _, want := range []string{
		"fig7-dapes", "fig7-bithoc", "fig7-ekta",
		"fig8a-carrier", "fig8b-repository", "fig8c-mobile",
		"partitioned-merge", "convoy-churn", "urban-grid",
	} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("scenario %q not registered", want)
		}
	}
	if _, ok := Lookup("definitely-not-registered"); ok {
		t.Fatal("Lookup invented a scenario")
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	t.Parallel()
	expectPanic := func(name string, sc *Scenario) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(sc)
	}
	expectPanic("nil", nil)
	expectPanic("no run", &Scenario{Name: "x"})
	expectPanic("duplicate", &Scenario{Name: "fig7-dapes",
		Run: func(Scale, float64, int) (TrialResult, error) { return TrialResult{}, nil }})
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
	tr, err := urbanGridTrial(s, 60, 0)
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
