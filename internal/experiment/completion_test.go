package experiment

import (
	"reflect"
	"testing"
	"time"
)

// naivePoll is the stop condition every trial driver used before allDone,
// kept here verbatim as the definition of where a trial must stop: ask every
// downloader after every event, once no fault event remains pending.
func naivePoll(w *dapesWorld) func() bool {
	return func() bool {
		if w.Now() < w.faultsUntil {
			return false
		}
		for _, p := range w.downloaders {
			if done, _ := p.Done(w.collection); !done {
				return false
			}
		}
		return true
	}
}

// undoneWatch wraps a stop condition and reports whether any downloader was
// ever seen done and later not done — a completion wiped by a cold restart.
func undoneWatch(w *dapesWorld, cond func() bool, undone *bool) func() bool {
	was := make([]bool, len(w.downloaders))
	return func() bool {
		for i, p := range w.downloaders {
			done, _ := p.Done(w.collection)
			if was[i] && !done {
				*undone = true
			}
			was[i] = done
		}
		return cond()
	}
}

// TestAllDoneStopsWhereTheNaivePollStops is the completion helper's
// acceptance gate: on the paper workload, on the crash-and-restart chaos
// scenario, and on a blackout run whose restarts wipe completions that are
// re-earned later, a trial driven by allDone ends on the same event (same
// clock, same TrialResult) as one driven by the naive per-event poll on the
// sequential kernel.
func TestAllDoneStopsWhereTheNaivePollStops(t *testing.T) {
	t.Parallel()
	base := goldenScale()
	base.Horizon = 8 * time.Minute

	// The scenario's own jammer, plus crashes that land after the fault-free
	// world has finished (4m47s): the trial must run on past its first
	// all-done instant, and every restart finds a completed collection to wipe.
	late := blackoutRecoveryScale(base)
	latePlan := *late.Faults
	latePlan.CrashFrac = 1
	latePlan.CrashFrom = 300 * time.Second
	latePlan.CrashUntil = 320 * time.Second
	latePlan.RestartMin = 5 * time.Second
	latePlan.RestartMax = 10 * time.Second
	late.Faults = &latePlan

	cases := []struct {
		name     string
		scale    Scale
		mustUndo bool // a restart must wipe a completion, or the case is vacuous
	}{
		{"fig7-dapes", base, false},
		{"urban-grid-chaos", urbanGridChaosScale(base), false},
		{"blackout-recovery", late, true},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/sequential", func(t *testing.T) {
			t.Parallel()
			fast, err := buildDAPES(tc.scale, 60, 0, PaperDefaults())
			if err != nil {
				t.Fatal(err)
			}
			got := fast.run()

			ref, err := buildDAPES(tc.scale, 60, 0, PaperDefaults())
			if err != nil {
				t.Fatal(err)
			}
			undone := false
			ref.RunUntil(ref.horizon, undoneWatch(ref, naivePoll(ref), &undone))
			want := ref.collect()

			if fast.Now() != ref.Now() {
				t.Errorf("stopped at %v, naive poll stops at %v", fast.Now(), ref.Now())
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("TrialResult diverged:\nallDone: %+v\nnaive:   %+v", got, want)
			}
			if got.Completed != got.Downloaders || ref.Now() >= ref.horizon {
				t.Errorf("trial ran to the horizon (%d/%d complete at %v): the stop point is not exercised",
					got.Completed, got.Downloaders, ref.Now())
			}
			if tc.scale.Faults.HasCrashes() && got.Crashed == 0 {
				t.Error("fault plan crashed nobody")
			}
			if tc.mustUndo && (!undone || got.Recovery <= 0) {
				t.Errorf("no completion was wiped by a restart and re-earned (undone %v, recovery %v)", undone, got.Recovery)
			}
		})
	}
}

// TestAllDoneCursor pins the helper's own contract on a scripted world:
// nothing is consulted before faultsUntil, a completion seen while a restart
// may still be pending is not remembered, and afterwards each downloader is
// asked only until it is first seen done.
func TestAllDoneCursor(t *testing.T) {
	t.Parallel()
	var now time.Duration
	done := []bool{false, false, false}
	asked := 0
	cond := allDone(func() time.Duration { return now }, 10, len(done), func(i int) (bool, time.Duration) {
		asked++
		return done[i], now
	})

	done[0], done[1], done[2] = true, true, true
	now = 9
	if cond() || asked != 0 {
		t.Fatalf("before faultsUntil: met or consulted downloaders (asked %d)", asked)
	}
	// At faultsUntil a restart due at this very timestamp may still fire:
	// downloader 0 is seen done, then loses its completion.
	now = 10
	done[2] = false
	if cond() {
		t.Fatal("met with downloader 2 incomplete")
	}
	done[0] = false
	if cond() {
		t.Fatal("a completion undone at faultsUntil was remembered")
	}
	done[0] = true
	now = 11
	asked = 0
	if cond() || asked != 3 {
		t.Fatalf("first check past faultsUntil: met or asked %d downloaders, want all 3", asked)
	}
	asked = 0
	if cond() || asked != 1 {
		t.Fatalf("steady state asked %d downloaders, want only the one still missing", asked)
	}
	done[2] = true
	if !cond() {
		t.Fatal("not met with every downloader done")
	}
}

// TestAllDoneDoesNotAllocate: the kernel evaluates the condition after every
// event of every trial.
func TestAllDoneDoesNotAllocate(t *testing.T) {
	s := goldenScale()
	s.Horizon = 8 * time.Minute
	w, err := buildDAPES(s, 60, 0, PaperDefaults())
	if err != nil {
		t.Fatal(err)
	}
	cond := allDone(w.Now, w.faultsUntil, len(w.downloaders), w.doneAt)
	if n := testing.AllocsPerRun(1000, func() { cond() }); n != 0 {
		t.Errorf("incomplete world: %v allocs per check, want 0", n)
	}
	if !w.RunUntil(w.horizon, cond) {
		t.Fatal("world did not complete")
	}
	if n := testing.AllocsPerRun(1000, func() { cond() }); n != 0 {
		t.Errorf("complete world: %v allocs per check, want 0", n)
	}
}
