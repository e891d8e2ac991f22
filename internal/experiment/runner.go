package experiment

import (
	"fmt"
	"math"
	"time"

	"dapes/internal/par"
)

// Runner fans a scenario's independent trials out across a worker pool
// Scale.Workers wide (0 or 1: serially, in the calling goroutine) — the one
// pool-size setting; Runner itself carries none. Each trial builds its own
// sim.Kernel from TrialSeed(BaseSeed, trial), so trials never share state
// and the pool size cannot change any result: a -workers=8 run produces
// byte-identical aggregates to a serial run.
type Runner struct{}

// RunResult is one scenario execution: the per-trial metrics in trial-index
// order plus the paper's aggregate statistics over them.
type RunResult struct {
	// Scenario is the catalog name.
	Scenario string
	// Range is the WiFi range the trials ran at, in meters: the world's
	// own where it fixes its range (Scenario.Range), not the runner's.
	Range float64
	// Seed is the base seed the per-trial seeds derive from.
	Seed int64
	// Workers is the pool size the run used (informational only; it never
	// affects the metrics).
	Workers int
	// Trials holds per-trial metrics indexed by trial number.
	Trials []TrialResult
	// DownloadTime90 and Transmissions90 are the 90th-percentile aggregates
	// the paper reports.
	DownloadTime90  time.Duration
	Transmissions90 float64
}

// Check is every refusal Run makes before its first trial: a nil scenario,
// a scale Validate rejects, a fault plan the scenario refuses
// (Scenario.Refuses), a design other than PaperDefaults beside a world
// that fixes its design, and a WiFi range that is not positive and finite. Run
// asks it for every caller — dapes-sim, each dapes-bench figure, plan
// cells — and a caller that opens files for the run (dapes-sim's profiles)
// asks it first, so a refused input leaves nothing behind.
func (Runner) Check(sc *Scenario, s Scale, wifiRange float64) error {
	if sc == nil || sc.Run == nil {
		return fmt.Errorf("experiment: nil scenario")
	}
	if err := s.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if why := sc.Refuses(s, AxisFaults); why != "" {
		return fmt.Errorf("experiment: scenario %q %s", sc.Name, why)
	}
	// Every preset scale carries the paper's design: only another is one
	// set for the run.
	if why := sc.Refuses(s, AxisDesign); why != "" && s.Design != PaperDefaults() {
		return fmt.Errorf("experiment: scenario %q %s", sc.Name, why)
	}
	// Not a Scale field, so Validate never sees it: a negative range panics
	// the medium's grid, zero silently runs phy's default under a
	// "range=0m" label, and +Inf runs a trial whose result JSON cannot
	// encode. (The negated form also refuses NaN.)
	if !(wifiRange > 0) || math.IsInf(wifiRange, 1) {
		return fmt.Errorf("experiment: scenario %q: WiFi range = %g m, must be positive and finite", sc.Name, wifiRange)
	}
	return nil
}

// Run executes s.Trials trials of the scenario and aggregates them. Trials
// are scheduled across the pool but collected by trial index, and every
// trial seeds from TrialSeed, so a successful RunResult is identical for
// any worker count. Errors fail fast (par.ForEach): no new trials start once
// one has failed, and the lowest-indexed recorded failure is reported (when
// several trials fail concurrently, which one is recorded first may vary
// with scheduling — success output never does).
func (r Runner) Run(sc *Scenario, s Scale, wifiRange float64) (RunResult, error) {
	if err := r.Check(sc, s, wifiRange); err != nil {
		return RunResult{}, err
	}
	n := s.Trials
	workers := max(1, min(s.Workers, n)) // the width used, echoed in RunResult
	trials := make([]TrialResult, n)
	err := par.ForEach(n, workers, func(t int) error {
		var err error
		if trials[t], err = sc.Run(s, wifiRange, t); err != nil {
			return fmt.Errorf("scenario %q trial %d: %w", sc.Name, t, err)
		}
		return nil
	})
	if err != nil {
		return RunResult{}, err
	}

	dt, tx := aggregate(trials)
	return RunResult{
		Scenario:        sc.Name,
		Range:           sc.Range(wifiRange),
		Seed:            s.BaseSeed,
		Workers:         workers,
		Trials:          trials,
		DownloadTime90:  dt,
		Transmissions90: tx,
	}, nil
}
