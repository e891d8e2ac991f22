package fault

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func chaosPlan() *Plan {
	return &Plan{
		CrashFrac:  0.34,
		CrashFrom:  15 * time.Second,
		CrashUntil: 30 * time.Second,
		RestartMin: 10 * time.Second,
		RestartMax: 15 * time.Second,
		LossModel:  LossGilbertElliott,
		PGood:      0.05,
		PBad:       0.40,
		GoodToBad:  0.10,
		BadToGood:  0.30,
	}
}

// TestCompileDeterministic pins the engine's core promise: a schedule is a
// pure function of (trialSeed, plan, n) — recompiling yields the identical
// event list, and a different seed yields a different one.
func TestCompileDeterministic(t *testing.T) {
	p := chaosPlan()
	a := p.Compile(42, 20)
	b := p.Compile(42, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recompile diverged:\n%+v\n%+v", a, b)
	}
	c := p.Compile(43, 20)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different trial seeds compiled the same schedule: %+v", a)
	}
}

// TestCompileSchedule checks the schedule's shape: victim count rounds from
// CrashFrac, victims are distinct and sorted in build order, every time lies
// in its configured window, and restarts follow crashes.
func TestCompileSchedule(t *testing.T) {
	p := chaosPlan()
	const n = 20
	sched := p.Compile(7, n)
	want := int(p.CrashFrac*float64(n) + 0.5)
	if len(sched.Crashes) != want {
		t.Fatalf("got %d crashes, want %d", len(sched.Crashes), want)
	}
	seen := make(map[int]bool)
	for i, ev := range sched.Crashes {
		if ev.Node < 0 || ev.Node >= n {
			t.Errorf("crash %d: node %d out of range [0,%d)", i, ev.Node, n)
		}
		if seen[ev.Node] {
			t.Errorf("node %d crashed twice", ev.Node)
		}
		seen[ev.Node] = true
		if i > 0 && sched.Crashes[i-1].Node > ev.Node {
			t.Errorf("schedule not in build order at %d: %d after %d",
				i, ev.Node, sched.Crashes[i-1].Node)
		}
		if ev.At < p.CrashFrom || ev.At >= p.CrashUntil {
			t.Errorf("node %d crashes at %v, outside [%v, %v)", ev.Node, ev.At, p.CrashFrom, p.CrashUntil)
		}
		if ev.RestartAt < ev.At+p.RestartMin || ev.RestartAt > ev.At+p.RestartMax {
			t.Errorf("node %d restarts at %v, outside [%v, %v]",
				ev.Node, ev.RestartAt, ev.At+p.RestartMin, ev.At+p.RestartMax)
		}
	}
}

// TestCompileNoRestart: RestartMax == 0 means crashed nodes stay down.
func TestCompileNoRestart(t *testing.T) {
	p := chaosPlan()
	p.RestartMin, p.RestartMax = 0, 0
	for _, ev := range p.Compile(7, 20).Crashes {
		if ev.RestartAt != 0 {
			t.Errorf("node %d got a restart at %v with RestartMax = 0", ev.Node, ev.RestartAt)
		}
	}
}

// TestCompileEmpty: empty plans and empty worlds compile to no events.
func TestCompileEmpty(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.HasCrashes() || nilPlan.HasJam() || nilPlan.HasLoss() {
		t.Fatal("nil plan must be empty")
	}
	if got := (&Plan{}).Compile(1, 20); len(got.Crashes) != 0 {
		t.Fatalf("zero plan compiled %d crashes", len(got.Crashes))
	}
	if got := chaosPlan().Compile(1, 0); len(got.Crashes) != 0 {
		t.Fatalf("empty world compiled %d crashes", len(got.Crashes))
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Plan)
		ok     bool
	}{
		{"chaos default", func(p *Plan) {}, true},
		{"nil loss model means iid", func(p *Plan) { p.LossModel = "" }, true},
		{"explicit iid", func(p *Plan) { p.LossModel = LossIID }, true},
		{"crash_frac over 1", func(p *Plan) { p.CrashFrac = 1.5 }, false},
		{"crash_frac NaN", func(p *Plan) { p.CrashFrac = math.NaN() }, false},
		{"negative crash window", func(p *Plan) { p.CrashFrom = -time.Second }, false},
		{"inverted crash window", func(p *Plan) { p.CrashUntil = p.CrashFrom - time.Second }, false},
		{"crashes without window", func(p *Plan) { p.CrashFrom, p.CrashUntil = 0, 0 }, false},
		{"inverted restart window", func(p *Plan) { p.RestartMin, p.RestartMax = 20*time.Second, 5*time.Second }, false},
		{"negative jam radius", func(p *Plan) { p.JamRadius = -1 }, false},
		{"inverted jam window", func(p *Plan) { p.JamRadius, p.JamFrom, p.JamUntil = 10, 30*time.Second, 10*time.Second }, false},
		{"unknown loss model", func(p *Plan) { p.LossModel = "rayleigh" }, false},
		{"GE probability out of range", func(p *Plan) { p.PBad = 1.5 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := chaosPlan()
			tc.mutate(p)
			err := p.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("want an error, got nil for %+v", p)
			}
		})
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(); err != nil {
		t.Fatalf("nil plan must validate: %v", err)
	}
}

// TestParseRoundTrip: a full [faults] section parses into exactly the plan
// its keys describe.
func TestParseRoundTrip(t *testing.T) {
	src := `
# chaos defaults, pasted from a plan file
[faults]
crash_frac = 0.34
crash_from = "15s"
crash_until = "30s"
restart_min = "10s"
restart_max = "15s"
loss_model = "gilbert-elliott"
loss_p_good = 0.05
loss_p_bad = 0.40    # fade bursts
loss_good_to_bad = 0.10
loss_bad_to_good = 0.30
`
	got, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if want := chaosPlan(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestParseJammer(t *testing.T) {
	got, err := Parse([]byte("jam_x = 150\njam_y = 150\njam_radius = 100\njam_from = \"10s\"\njam_until = \"40s\"\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !got.HasJam() || got.HasCrashes() || got.HasLoss() {
		t.Fatalf("want a jam-only plan, got %+v", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"crash_frac",                            // no '='
		"crash_frac = banana",                   // not a number
		"crash_from = 90",                       // unquoted number where a duration is required
		"crash_from = \"ninety\"",               // not a duration
		"loss_model = \"rayleigh\"",             // unknown model
		"tilt = 1",                              // unknown key
		"jam_x = 1\njam_x = 2",                  // duplicate key
		"crash_frac = 0.5",                      // crashes without a window (Validate)
		"crash_frac = 2\ncrash_until = \"30s\"", // out-of-range fraction
	} {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q) = nil error, want one", src)
		}
	}
}

// TestParseEmpty: comments, blank lines, and a bare header are a valid —
// empty — plan.
func TestParseEmpty(t *testing.T) {
	p, err := Parse([]byte("# nothing\n\n[faults]\n"))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.HasCrashes() || p.HasJam() || p.HasLoss() {
		t.Fatalf("want an empty plan, got %+v", p)
	}
}
