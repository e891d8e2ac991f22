package experiment

import (
	"time"

	"dapes/internal/fault"
)

// The chaos scenario family: the catalog workloads rerun under the
// fault engine (internal/fault). Each trial carries a default fault plan
// when the scale doesn't bring its own ([faults] in a plan file or
// dapes-sim -faults overrides it), so the scenarios are runnable by name
// and the schedules — like everything else here — are pure functions of
// the trial seed.

// urbanChaosPlan is urban-grid-chaos's default: roughly a third of the
// downloaders and intermediates crash in the trial's first half and cold-
// restart within a sixth of the horizon, all over a bursty Gilbert-Elliott
// channel (≈5% loss in the good state, 40% in fade bursts) instead of the
// i.i.d. reference.
func urbanChaosPlan(h time.Duration) *fault.Plan {
	return &fault.Plan{
		CrashFrac:  0.34,
		CrashFrom:  h / 6,
		CrashUntil: h / 3,
		RestartMin: h / 9,
		RestartMax: h / 6,
		LossModel:  fault.LossGilbertElliott,
		PGood:      0.05,
		PBad:       0.40,
		GoodToBad:  0.10,
		BadToGood:  0.30,
	}
}

// urbanGridChaosScale is urban-grid's dense mix under churn: same 5x node
// mix and 450 m area, plus the default chaos plan. The acceptance bar —
// with ≥30% of eligible nodes crashed mid-trial, completions recover to
// ≥90% of the fault-free run after restarts — is pinned by
// TestChaosRecoveryBar.
func urbanGridChaosScale(s Scale) Scale {
	dense := urbanGridScale(s)
	if dense.Faults == nil {
		dense.Faults = urbanChaosPlan(dense.Horizon)
	}
	return dense
}

// blackoutRecoveryScale is the Fig.-7 workload with a regional jammer:
// a disk covering the middle of the arena goes dark for a quarter of the
// horizon, starting an eighth in — early enough to interrupt downloads in
// progress — and the run measures how completion times recover once the
// blackout lifts.
func blackoutRecoveryScale(s Scale) Scale {
	faulted := s
	side := faulted.AreaSide
	if side <= 0 {
		side = areaSide
	}
	if faulted.Faults == nil {
		h := faulted.Horizon
		faulted.Faults = &fault.Plan{
			JamX:      side / 2,
			JamY:      side / 2,
			JamRadius: 0.35 * side,
			JamFrom:   h / 8,
			JamUntil:  3 * h / 8,
		}
	}
	return faulted
}
