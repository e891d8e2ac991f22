package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dapes/internal/experiment"
)

const (
	// A set-up probe round runs every cell with this horizon: the world is
	// built, the collection hashed and the peers started, and the kernel
	// stops before the first frame.
	probeHorizon = time.Nanosecond

	minProbeRounds = 3
	maxProbeRounds = 25
	// Two repetitions are the least that can check determinism.
	minReps = 2

	maxFailuresKept = 8
)

// sample is what the host spent on one call of one cell.
type sample struct {
	wall, cpu      float64 // seconds
	mallocs, bytes float64 // heap objects, heap bytes
}

// runner runs one workload's cells and checks every result. An operation
// is one call of a cell's TrialFunc, in a probe round or in a repetition.
type runner struct {
	w     workload
	cells []cell
	scen  []*experiment.Scenario
	// first holds each cell's result from the first repetition: the
	// simulated metrics, and what later repetitions must reproduce.
	first     []experiment.TrialResult
	attempted int
	failed    int
	failures  []string
	spans     *spanLog // nil outside a traced run
	root      int      // the span every round hangs under
}

func newRunner(w workload, seed int64) (*runner, error) {
	r := &runner{w: w, cells: w.cells(seed)}
	for _, c := range r.cells {
		if err := c.scale.Validate(); err != nil {
			return nil, err
		}
		sc, err := experiment.Find(c.scenario)
		if err != nil {
			return nil, err
		}
		r.scen = append(r.scen, sc)
	}
	return r, nil
}

func (r *runner) fail(i int, format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailuresKept {
		c := r.cells[i]
		r.failures = append(r.failures, fmt.Sprintf("%s range=%g trial=%d: %s",
			c.scenario, c.wifiRange, c.trial, fmt.Sprintf(format, args...)))
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return ru
}

// cpuSeconds is the process's user plus system CPU time. It counts the
// collector and the shard workers on the second core, which wall time hides.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// call times one run of cell i, at the given horizon when that is not 0. A
// panic on the calling goroutine is reported as the cell's error.
func (r *runner) call(i int, horizon time.Duration) (s sample, res experiment.TrialResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	c := r.cells[i]
	if horizon != 0 {
		c.scale.Horizon = horizon
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err = r.scen[i].Run(c.scale, c.wifiRange, c.trial)
	s.wall = time.Since(t0).Seconds()
	s.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	s.mallocs = float64(after.Mallocs - before.Mallocs)
	s.bytes = float64(after.TotalAlloc - before.TotalAlloc)
	return s, res, err
}

// round runs every cell once under a span named kind — at the given horizon,
// or at the cell's own when that is 0 — and returns one sample per cell;
// check sees each result that came back without an error.
func (r *runner) round(kind string, horizon time.Duration, check func(i int, res experiment.TrialResult)) []sample {
	parent := r.spans.begin(kind, r.root)
	defer r.spans.end(parent)
	out := make([]sample, len(r.cells))
	for i, c := range r.cells {
		id := r.spans.begin(fmt.Sprintf("cell %s range=%g trial=%d", c.scenario, c.wifiRange, c.trial), parent)
		s, res, err := r.call(i, horizon)
		r.spans.end(id)
		out[i] = s
		r.attempted++
		switch {
		case err != nil:
			r.fail(i, "%v", err)
		case res.Downloaders != c.downloaders:
			r.fail(i, "%d downloaders, the workload defines %d", res.Downloaders, c.downloaders)
		default:
			check(i, res)
		}
	}
	return out
}

// probe is one set-up probe round.
func (r *runner) probe() []sample {
	return r.round("probe", probeHorizon, func(i int, res experiment.TrialResult) {
		if res.Transmissions != 0 {
			r.fail(i, "set-up probe put %d frames on the air", res.Transmissions)
		}
	})
}

// rep is one repetition of the cell list at the workload's own horizons.
func (r *runner) rep() []sample {
	isFirst := r.first == nil
	if isFirst {
		r.first = make([]experiment.TrialResult, len(r.cells))
	}
	return r.round("rep", 0, func(i int, res experiment.TrialResult) {
		switch {
		case isFirst:
			r.first[i] = res
			if r.w.requireAll && res.Completed != res.Downloaders {
				r.fail(i, "%d of %d downloads completed", res.Completed, res.Downloaders)
			}
		case res != r.first[i]:
			r.fail(i, "not deterministic: %+v, first repetition %+v", res, r.first[i])
		}
	})
}

// measurement is the samples of one run: [round][cell].
type measurement struct {
	probes [][]sample
	reps   [][]sample
}

// measure spends about budget on the workload: probe rounds for a tenth of
// it, then repetitions while another one fits.
func (r *runner) measure(budget time.Duration) measurement {
	start := time.Now()
	var m measurement
	for n := 0; n < maxProbeRounds && (n < minProbeRounds || time.Since(start) < budget/10); n++ {
		m.probes = append(m.probes, r.probe())
	}
	var longest time.Duration
	for n := 0; n < minReps || time.Since(start)+longest <= budget; n++ {
		t0 := time.Now()
		m.reps = append(m.reps, r.rep())
		longest = max(longest, time.Since(t0))
	}
	return m
}

func wallOf(s sample) float64 { return s.wall }

// bestSum adds, over the cells, the least f any round saw for that cell. The
// simulator is deterministic, so every round of a cell does identical work
// and the host only ever adds to it: the minimum is the estimate the machine
// disturbed least, and taking it per cell makes one disturbed round cost a
// cell, not the sum.
func bestSum(rounds [][]sample, f func(sample) float64) float64 {
	total := 0.0
	for i := range rounds[0] {
		vals := make([]float64, len(rounds))
		for k, round := range rounds {
			vals[k] = f(round[i])
		}
		total += slices.Min(vals)
	}
	return total
}

// roundTotals is f summed over the cells of each round.
func roundTotals(rounds [][]sample, f func(sample) float64) []float64 {
	out := make([]float64, len(rounds))
	for k, round := range rounds {
		for _, s := range round {
			out[k] += f(s)
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics of a measurement.
func (r *runner) endToEnd(m measurement) map[string]float64 {
	frames := 0.0
	for _, res := range r.first {
		frames += float64(res.Transmissions)
	}
	return map[string]float64{
		"setup_s":   bestSum(m.probes, wallOf),
		"wall_s":    bestSum(m.reps, wallOf),
		"cpu_s":     bestSum(m.reps, func(s sample) float64 { return s.cpu }),
		"mallocs_m": bestSum(m.reps, func(s sample) float64 { return s.mallocs }) / 1e6,
		"alloc_mb":  bestSum(m.reps, func(s sample) float64 { return s.bytes }) / 1e6,
		"tx_k":      frames / 1e3,
	}
}

// derived computes the per-layer metrics that follow exactly from the
// TrialResults and the end-to-end metrics e of the same run.
func (r *runner) derived(m measurement, e map[string]float64) map[string]float64 {
	var frames, completed, downloaders, nodes, download, accuracy, state float64
	for i, res := range r.first {
		frames += float64(res.Transmissions)
		completed += float64(res.Completed)
		downloaders += float64(res.Downloaders)
		nodes += float64(r.cells[i].nodes)
		download += res.AvgDownloadTime.Seconds()
		accuracy += res.ForwardAccuracy
		state += float64(res.MemoryBytes)
	}
	n := float64(len(r.cells))
	out := map[string]float64{
		"experiment.us_per_frame":        e["wall_s"] * 1e6 / frames,
		"experiment.setup_us_per_node":   e["setup_s"] * 1e6 / nodes,
		"experiment.download_vs":         download / n,
		"experiment.completed_frac":      completed / downloaders,
		"experiment.frames_per_download": 0,
		"multihop.forward_accuracy":      accuracy / n,
		"core.state_kb_per_node":         state / 1e3 / nodes,
		"harness.wall_median_s":          median(roundTotals(m.reps, wallOf)),
		"harness.wall_iqr_frac":          iqrFrac(roundTotals(m.reps, wallOf)),
		"harness.setup_median_s":         median(roundTotals(m.probes, wallOf)),
		"harness.reps":                   float64(len(m.reps)),
	}
	if completed > 0 {
		out["experiment.frames_per_download"] = frames / completed
	}
	return out
}
