package experiment

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// TestRunnerParallelMatchesSerial is the registry's core guarantee: the same
// base seed must yield byte-identical aggregates whether trials run in one
// goroutine or fan out across eight workers.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	s.Trials = 4
	sc, err := Find("fig7-dapes")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Runner{}.Run(sc, s, 80)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 8
	parallel, err := Runner{}.Run(sc, s, 80)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Trials, parallel.Trials) {
		t.Fatalf("per-trial results diverged:\nserial:   %+v\nparallel: %+v",
			serial.Trials, parallel.Trials)
	}
	if serial.DownloadTime90 != parallel.DownloadTime90 ||
		serial.Transmissions90 != parallel.Transmissions90 {
		t.Fatalf("aggregates diverged: %v/%v vs %v/%v",
			serial.DownloadTime90, serial.Transmissions90,
			parallel.DownloadTime90, parallel.Transmissions90)
	}
	if parallel.Workers != 4 { // clamped to trial count
		t.Fatalf("workers = %d, want clamp to 4", parallel.Workers)
	}
}

func TestRunnerPropagatesTrialError(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	var ran atomic.Int32
	sc := &Scenario{
		Name: "failing",
		Run: func(s Scale, _ float64, trial int) (TrialResult, error) {
			ran.Add(1)
			if trial >= 2 {
				return TrialResult{}, boom
			}
			return TrialResult{Downloaders: 1}, nil
		},
	}
	s := tinyScale()
	s.Trials = 6
	s.Workers = 4
	_, err := Runner{}.Run(sc, s, 80)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "trial ") || !strings.Contains(err.Error(), `"failing"`) {
		t.Fatalf("err = %v, want scenario name and failing trial index", err)
	}

	// Serial runs fail fast deterministically: trials 0, 1 succeed, trial 2
	// fails, trials 3-5 never start.
	ran.Store(0)
	s.Workers = 1
	_, err = Runner{}.Run(sc, s, 80)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "trial 2") {
		t.Fatalf("serial err = %v, want failure at trial 2", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("serial run executed %d trials after a failure at trial 2, want 3 (fail fast)", got)
	}
}

func TestRunnerRejectsBadInput(t *testing.T) {
	t.Parallel()
	if _, err := (Runner{}).Run(nil, tinyScale(), 80); err == nil {
		t.Fatal("nil scenario accepted")
	}
	sc, _ := Find("fig7-dapes")
	// Run is where a Scale is validated for dapes-sim and dapes-bench: each
	// bad knob fails with its field's name before a world is built (a
	// negative PacketsPerFile used to panic in buildCollection).
	for _, tc := range []struct {
		field string
		set   func(*Scale)
	}{
		{"Scale.Trials", func(s *Scale) { s.Trials = 0 }},
		{"Scale.Trials", func(s *Scale) { s.Trials = MaxTrials + 1 }},
		{"Scale.PacketsPerFile", func(s *Scale) { s.PacketsPerFile = -1 }},
		{"Scale.PacketsPerFile", func(s *Scale) { s.PacketsPerFile = 0 }},
		{"Scale.Horizon", func(s *Scale) { s.Horizon = 0 }},
		{"Scale.Workers", func(s *Scale) { s.Workers = -3 }},
	} {
		s := tinyScale()
		tc.set(&s)
		if _, err := (Runner{}).Run(sc, s, 80); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Fatalf("bad %s: err = %v, want one naming the field", tc.field, err)
		}
	}
	// The range is an argument, not a Scale field: Validate never sees it.
	for _, r := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if _, err := (Runner{}).Run(sc, tinyScale(), r); err == nil || !strings.Contains(err.Error(), "range") {
			t.Fatalf("WiFi range %g: err = %v, want a range error", r, err)
		}
	}
}

func TestTrialSeedDistinctAndStable(t *testing.T) {
	t.Parallel()
	seen := map[int64]bool{}
	for trial := 0; trial < 100; trial++ {
		s := TrialSeed(42, trial)
		if seen[s] {
			t.Fatalf("duplicate seed %d at trial %d", s, trial)
		}
		seen[s] = true
		if s != TrialSeed(42, trial) {
			t.Fatal("TrialSeed not stable")
		}
	}
	if TrialSeed(1, 0) != 1 {
		t.Fatalf("trial 0 must use the base seed, got %d", TrialSeed(1, 0))
	}
}

// TestTrialSeedWraps pins the documented two's-complement contract: a base
// seed near the int64 boundary derives wrapped — not platform-dependent —
// trial seeds. The expected value routes through variables because Go
// rejects constant-folded overflow at compile time.
func TestTrialSeedWraps(t *testing.T) {
	t.Parallel()
	base := int64(math.MaxInt64)
	want := int64(uint64(base) + uint64(int64(3))*7919)
	if want >= 0 {
		t.Fatalf("test setup: expected a wrapped (negative) seed, got %d", want)
	}
	if got := TrialSeed(base, 3); got != want {
		t.Fatalf("TrialSeed(MaxInt64, 3) = %d, want %d", got, want)
	}
	if got := TrialSeed(42, 3); got != 42+3*7919 {
		t.Fatalf("TrialSeed(42, 3) = %d, want %d (in-range derivation must be unchanged)", got, 42+3*7919)
	}
}

// TestRunDAPESWorkersDeterministic drives the same figure path the CLIs use
// (Figure.Run reads Scale.Workers), on Fig. 10's DAPES column, and checks
// parallelism changes nothing.
func TestRunDAPESWorkersDeterministic(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	fig := only(Figures[slices.IndexFunc(Figures, func(f Figure) bool { return f.ID == "10" })], s, map[string]bool{"DAPES": true})
	s.Trials = 3
	serial, err := fig.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 8
	pooled, err := fig.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	pooled.Cells[0][0].Workers = serial.Cells[0][0].Workers // the echoed knob
	if !reflect.DeepEqual(serial.Cells, pooled.Cells) {
		t.Fatalf("the sweep diverged across worker counts:\n%+v\nvs\n%+v", serial.Cells, pooled.Cells)
	}
}
