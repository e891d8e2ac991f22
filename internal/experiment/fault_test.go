package experiment

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"dapes/internal/fault"
)

// faultScale is goldenScale with a chaos plan whose crash, restart, and jam
// windows all land inside the 90 s horizon: crashes at 15-30 s, restarts
// 10-15 s later, bursty loss throughout.
func faultScale() Scale {
	s := goldenScale()
	s.Faults = &fault.Plan{
		CrashFrac:  0.34,
		CrashFrom:  15 * time.Second,
		CrashUntil: 30 * time.Second,
		RestartMin: 10 * time.Second,
		RestartMax: 15 * time.Second,
		JamX:       150,
		JamY:       150,
		JamRadius:  80,
		JamFrom:    20 * time.Second,
		JamUntil:   40 * time.Second,
		LossModel:  fault.LossGilbertElliott,
		PGood:      0.05,
		PBad:       0.40,
		GoodToBad:  0.10,
		BadToGood:  0.30,
	}
	return s
}

// TestFaultScheduleDeterministic is the tentpole's acceptance gate: with a
// full fault plan active (crashes, restarts, jammer, bursty loss), the run
// is byte-identical run-to-run and across worker-pool sizes. The schedule
// is a pure function of (seed, plan) — no worker pool or wall-clock state
// may leak in.
func TestFaultScheduleDeterministic(t *testing.T) {
	t.Parallel()
	base := faultScale()
	base.Trials = 2

	run := func(t *testing.T, workers int) (RunResult, []byte) {
		t.Helper()
		s := base
		var built []*world
		if workers == 1 { // the built log is unlocked: one goroutine only
			s.Engine.built = &built
		}
		s.Workers = workers
		res, err := Runner{}.Run(scenario(t, "fig7-dapes"), s, 60)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if workers == 1 {
			assertEngine(t, "fig7-dapes", s, built)
		}
		var buf bytes.Buffer
		if err := EmitRun(&buf, FormatJSON, res); err != nil {
			t.Fatalf("emit: %v", err)
		}
		return res, buf.Bytes()
	}

	seqRes, seqJSON := run(t, 1)
	if _, again := run(t, 1); !bytes.Equal(seqJSON, again) {
		t.Errorf("faulted run diverged run-to-run:\n%s\n%s", seqJSON, again)
	}
	// Across pool sizes only the echoed Workers knob may differ.
	pooledRes, _ := run(t, 4)
	pooledRes.Workers = seqRes.Workers
	if !reflect.DeepEqual(seqRes, pooledRes) {
		t.Errorf("faulted run diverged across worker-pool sizes:\n%+v\n%+v", seqRes, pooledRes)
	}

	// The gate must not pass vacuously: the plan has to have crashed someone.
	if seqRes.Trials[0].Crashed == 0 {
		t.Error("fault plan crashed nobody; determinism proof is vacuous")
	}
}

// TestEmptyFaultPlanTraceNeutral pins the contract's other half: a nil plan,
// a zero plan, and an explicit-i.i.d. plan all run the exact no-fault code
// path, byte for byte.
func TestEmptyFaultPlanTraceNeutral(t *testing.T) {
	t.Parallel()
	run := func(t *testing.T, f *fault.Plan) []byte {
		t.Helper()
		s := goldenScale()
		s.Faults = f
		res, err := Runner{}.Run(scenario(t, "fig7-dapes"), s, 60)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EmitRun(&buf, FormatJSON, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	base := run(t, nil)
	if got := run(t, &fault.Plan{}); !bytes.Equal(base, got) {
		t.Errorf("zero fault plan changed the trace:\nnil:  %s\nzero: %s", base, got)
	}
	if got := run(t, &fault.Plan{LossModel: fault.LossIID}); !bytes.Equal(base, got) {
		t.Errorf("explicit iid loss model changed the trace:\nnil: %s\niid: %s", base, got)
	}
}

// TestGilbertElliottDegeneratesToIID is the golden bridge between the loss
// models: a GE chain whose two states drop at the scale's i.i.d. rate makes
// the same kernel-RNG draws in the same order as the reference path (chain
// transitions ride a dedicated fault RNG), so the whole trial is
// byte-identical to the retained i.i.d. trace.
func TestGilbertElliottDegeneratesToIID(t *testing.T) {
	t.Parallel()
	run := func(t *testing.T, f *fault.Plan) []byte {
		t.Helper()
		s := goldenScale() // LossRate 0.10
		s.Faults = f
		res, err := Runner{}.Run(scenario(t, "fig7-dapes"), s, 60)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EmitRun(&buf, FormatJSON, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	iid := run(t, nil)
	ge := run(t, &fault.Plan{
		LossModel: fault.LossGilbertElliott,
		PGood:     0.10, // == goldenScale's LossRate in both states
		PBad:      0.10,
		GoodToBad: 0.30,
		BadToGood: 0.30,
	})
	if !bytes.Equal(iid, ge) {
		t.Errorf("degenerate GE diverged from the i.i.d. reference:\niid: %s\nge:  %s", iid, ge)
	}
}

// TestChaosRecoveryBar is the hardening acceptance bar: urban-grid-chaos
// crashes ≥30% of the fault-eligible nodes mid-trial, and after their cold
// restarts the swarm still reaches ≥90% of the fault-free urban-grid
// completions at the identical scale.
func TestChaosRecoveryBar(t *testing.T) {
	t.Parallel()
	s := goldenScale()
	s.Horizon = 6 * time.Minute

	clean, err := Runner{}.Run(scenario(t, "urban-grid"), s, 60)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := Runner{}.Run(scenario(t, "urban-grid-chaos"), s, 60)
	if err != nil {
		t.Fatal(err)
	}

	ct, ft := chaos.Trials[0], clean.Trials[0]
	eligible := ft.Downloaders + s.Intermediates*5 // chaos scenario's 5x mix
	if ct.Crashed*10 < eligible*3 {
		t.Fatalf("only %d of %d eligible nodes crashed; the bar requires >= 30%%", ct.Crashed, eligible)
	}
	if ct.Completed*10 < ft.Completed*9 {
		t.Fatalf("completions under churn = %d, fault-free = %d; bar is >= 90%%", ct.Completed, ft.Completed)
	}
	if ft.Completed == 0 {
		t.Fatal("fault-free urban-grid completed nothing; the bar is vacuous")
	}
	if ct.Recovery <= 0 {
		t.Fatal("no recovery-time statistic: nobody re-completed after a restart")
	}
}

// TestNoScenarioIgnoresFaultPlan: a fault plan handed to a scenario either
// shapes its trials or is rejected. Under a plan that jams every node for
// longer than the horizon, each registered scenario must fail its run or
// complete no download; one that built its world without the plan would
// complete as if the plan were not there.
func TestNoScenarioIgnoresFaultPlan(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	s.Horizon = 10 * time.Minute
	s.Faults = &fault.Plan{JamRadius: 10000, JamUntil: 2 * time.Hour}
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Runner{}.Run(sc, s, 80)
			if err != nil {
				return
			}
			for i, tr := range res.Trials {
				if tr.Completed != 0 {
					t.Errorf("trial %d completed %d/%d downloads with every node jammed: the fault plan was ignored",
						i, tr.Completed, tr.Downloaders)
				}
			}
		})
	}
}
