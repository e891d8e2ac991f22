package experiment

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dapes/internal/phy"
)

// TrialSeed derives the deterministic seed for one trial from the scale's
// base seed and the trial index. Every trial runner — serial or parallel —
// must obtain its seed here so that the trial schedule is a pure function of
// (BaseSeed, trial) and fan-out order cannot perturb results.
//
// The arithmetic is defined as two's-complement wrap: it runs in uint64 and
// converts back, so a BaseSeed near the int64 boundary produces the same
// (wrapped) seed on every platform instead of leaning on signed-overflow
// behavior. Every int64 BaseSeed is therefore valid — Scale.Validate does
// not bound it — and plan.CellSeed makes the same promise for cell seeds.
func TrialSeed(base int64, trial int) int64 {
	return int64(uint64(base) + uint64(int64(trial))*7919)
}

// TrialFunc runs one independent trial of a scenario. Implementations must
// build their entire world — sim.Kernel, medium, peers — from
// TrialSeed(s.BaseSeed, trial) and must not share mutable state across
// calls; the Runner invokes trials concurrently.
type TrialFunc func(s Scale, wifiRange float64, trial int) (TrialResult, error)

// Scenario is a named experiment workload. The catalog is how CLIs and
// harnesses enumerate what the repository can run: paper reproductions
// (Fig. 7 sweeps, Fig. 8 feasibility runs), baselines, ablations, and
// workloads beyond the paper are all entries there, driven by the same
// Runner. docs/EXPERIMENTS.md describes each one in test-plan form.
type Scenario struct {
	// Name is the stable catalog key (e.g. "fig7-dapes").
	Name string
	// Summary is a one-line description for -list output.
	Summary string
	// Run executes one trial. See TrialFunc for the determinism contract.
	Run TrialFunc
	// Fixed declares what the scenario's world sets for itself. A CLI flag
	// or a plan key that sets a fixed input is refused for the scenario, and
	// a label of one shows the declared value, never the runner's.
	Fixed Fixed
}

// Fixed is the one declaration of the inputs a world sets for itself and so
// never reads from the runner or the scale, and of the values it runs them
// at.
type Fixed struct {
	// Axes are the inputs the world sets for itself.
	Axes []Axis
	// Radio is the range and the loss rate the world runs at, for those of
	// AxisRange and AxisLoss that Axes holds.
	Radio phy.Config
	// Bursty marks a world whose own fault plan, the one it runs when the
	// scale brings none, draws its loss from a bursty channel in place of
	// the i.i.d. loss rate (Scenario.BurstyLoss).
	Bursty bool
}

// Axis is a trial input that a runner sets and a world may fix. The zero
// Axis names no input.
type Axis int

const (
	// AxisRange is the runner's WiFi range.
	AxisRange Axis = iota + 1
	// AxisLoss is Scale.LossRate.
	AxisLoss
	// AxisNodes is the Scale node mix.
	AxisNodes
	// AxisArea is Scale.AreaSide.
	AxisArea
	// AxisFaults is Scale.Faults: a world that fixes it applies none.
	AxisFaults
	// AxisDesign is Scale.Design: a world that fixes it runs a design of
	// its own, or none (the IP baselines).
	AxisDesign
)

var axisNames = [...]string{AxisRange: "range", AxisLoss: "loss rate", AxisNodes: "node mix", AxisArea: "area", AxisFaults: "fault plan", AxisDesign: "design"}

// String names the input the axis sets.
func (a Axis) String() string { return axisNames[a] }

// Fixes reports whether the scenario's world fixes axis a.
func (s *Scenario) Fixes(a Axis) bool {
	return slices.Contains(s.Fixed.Axes, a)
}

// Range is the range a trial of the scenario runs at when the runner sets
// wifiRange: the declared one if the world fixes its range.
func (s *Scenario) Range(wifiRange float64) float64 {
	if s.Fixes(AxisRange) {
		return s.Fixed.Radio.Range
	}
	return wifiRange
}

// BurstyLoss reports whether a trial of the scenario under scale sc draws
// its loss from a bursty channel in place of the i.i.d. sc.LossRate: the
// fault plan the trial runs — the scale's own or, when the scale brings
// none, the world's — sets a loss model. It is the one decision of it: a
// loss label and a plan's loss keys read it.
func (s *Scenario) BurstyLoss(sc Scale) bool {
	if sc.Faults != nil {
		return sc.Faults.HasLoss()
	}
	return s.Fixed.Bursty
}

// Loss is the loss rate a trial of the scenario runs at under scale sc: the
// declared one if the world fixes its loss, sc.LossRate otherwise. ok is
// false for a trial that draws its loss from a bursty channel
// (BurstyLoss): it runs at no one loss rate, so no label shows one.
func (s *Scenario) Loss(sc Scale) (rate float64, ok bool) {
	switch {
	case s.Fixes(AxisLoss):
		return s.Fixed.Radio.LossRate, true
	case s.BurstyLoss(sc):
		return 0, false
	}
	return sc.LossRate, true
}

// Refuses is the one decision of what a run of the scenario under scale sc
// refuses on axis a, asked before anything runs: an input its world fixes,
// a loss rate where the loss is bursty (BurstyLoss), or a fault plan that
// crashes, jams or drops where its world applies none. It returns why, or
// "" for an input the world reads.
func (s *Scenario) Refuses(sc Scale, a Axis) string {
	switch f := sc.Faults; {
	case a == AxisFaults:
		// A plan that injects nothing runs the no-fault path byte for byte.
		if s.Fixes(a) && (f.HasCrashes() || f.HasJam() || f.HasLoss()) {
			return "applies no fault plan (crashes, jam, bursty loss)"
		}
	case s.Fixes(a):
		return "fixes its world's " + a.String()
	case a == AxisLoss && s.BurstyLoss(sc):
		return "runs a bursty loss channel, not a loss rate"
	}
	return ""
}

// Find returns the catalog scenario named name, or a descriptive error
// that lists the closest names. Everything that resolves a scenario from a
// CLI flag or a plan file goes through Find, so a typo'd "fig7-dappes"
// answers with "did you mean fig7-dapes?" instead of a bare not-found.
func Find(name string) (*Scenario, error) {
	for _, sc := range catalog {
		if sc.Name == name {
			return sc, nil
		}
	}
	if near := nearMisses(name, 3); len(near) > 0 {
		return nil, fmt.Errorf("experiment: unknown scenario %q (did you mean %s? run -list to enumerate)",
			name, strings.Join(near, ", "))
	}
	return nil, fmt.Errorf("experiment: unknown scenario %q (run -list to enumerate)", name)
}

// nearMisses returns up to max catalog names close to name: substring
// matches first, then small edit distances, in deterministic order.
func nearMisses(name string, max int) []string {
	type cand struct {
		name string
		dist int
	}
	var cands []cand
	lower := strings.ToLower(name)
	for _, sc := range catalog {
		scLower := strings.ToLower(sc.Name)
		switch {
		case strings.Contains(scLower, lower) || strings.Contains(lower, scLower):
			cands = append(cands, cand{sc.Name, 0})
		default:
			if d := editDistance(lower, scLower); d <= 1+len(scLower)/4 {
				cands = append(cands, cand{sc.Name, d})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.name
	}
	return out
}

// editDistance is the Levenshtein distance between two short strings.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// Scenarios returns every catalog scenario sorted by name, so listings are
// stable across runs.
func Scenarios() []*Scenario { return slices.Clone(catalog) }
