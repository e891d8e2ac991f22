package experiment

import (
	"errors"
	"time"

	"dapes/internal/core"
	"dapes/internal/fault"
	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/phy"
)

// This file wires a Scale's fault plan (internal/fault) into a built DAPES
// trial at one installation point (after every Start, before RunUntil); a
// nil or empty plan leaves the trial untouched (the trace-neutrality gate
// in fault_test.go).

// refuseFaults is the first step of a trial whose world is built without a
// fault plan: handed a plan that would crash a node, jam the air or drop
// frames, the trial fails instead of running as if the plan were not there.
func refuseFaults(s Scale) error {
	if f := s.Faults; f.HasCrashes() || f.HasJam() || f.HasLoss() {
		return errors.New("experiment: the workload applies no fault plan (crashes, jam, bursty loss)")
	}
	return nil
}

// installMediumFaults installs the plan's loss model and jammer on the
// trial's medium.
func installMediumFaults(m *phy.Medium, f *fault.Plan, seed int64) {
	if f == nil {
		return
	}
	if f.HasLoss() {
		m.SetLossModel(phy.NewGilbertElliott(phy.GEConfig{
			PGood:     f.PGood,
			PBad:      f.PBad,
			GoodToBad: f.GoodToBad,
			BadToGood: f.BadToGood,
		}, seed))
	}
	if f.HasJam() {
		m.SetJammer(&phy.Jammer{
			Center: geo.Point{X: f.JamX, Y: f.JamY},
			Radius: f.JamRadius,
			From:   f.JamFrom,
			Until:  f.JamUntil,
		})
	}
}

// scheduleCrashes compiles the plan against the trial's fault-eligible
// peers — downloaders then protocol-aware intermediates, in world build
// order — and installs each crash/restart event on the victim's kernel. It
// returns the compiled schedule and the virtual time after which no fault
// event remains pending: a trial must not early-exit before that time,
// because a still-pending crash can undo a completion the exit condition
// just observed.
func scheduleCrashes(f *fault.Plan, seed int64, downloaders, intermediates []*core.Peer) (fault.Schedule, time.Duration) {
	if !f.HasCrashes() {
		return fault.Schedule{}, 0
	}
	victims := make([]*core.Peer, 0, len(downloaders)+len(intermediates))
	victims = append(victims, downloaders...)
	victims = append(victims, intermediates...)
	sched := f.Compile(seed, len(victims))
	var until time.Duration
	for _, ev := range sched.Crashes {
		p := victims[ev.Node]
		p.Kernel().ScheduleFuncAt(ev.At, p.Crash)
		if ev.At > until {
			until = ev.At
		}
		if ev.RestartAt > 0 {
			p.Kernel().ScheduleFuncAt(ev.RestartAt, p.Restart)
			if ev.RestartAt > until {
				until = ev.RestartAt
			}
		}
	}
	return sched, until
}

// chaosStats folds the fault schedule into the trial's result: how many
// peers the schedule crashed, and the mean restart-to-recompletion time
// across downloaders that finished (again) after coming back — the
// recovery-time statistic the chaos scenarios report.
func chaosStats(res *TrialResult, sched fault.Schedule, downloaders []*core.Peer, collection ndn.Name) {
	res.Crashed = len(sched.Crashes)
	var sum time.Duration
	n := 0
	for _, ev := range sched.Crashes {
		if ev.RestartAt == 0 || ev.Node >= len(downloaders) {
			continue
		}
		if done, at := downloaders[ev.Node].Done(collection); done && at > ev.RestartAt {
			sum += at - ev.RestartAt
			n++
		}
	}
	if n > 0 {
		res.Recovery = sum / time.Duration(n)
	}
}
