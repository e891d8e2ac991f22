// Command benchmark is the repository's benchmark: it runs one named
// workload through the scenario registry — the TrialFunc path dapes-sim and
// dapes-plan use — and prints every metric BENCHMARK.json lists, by name and
// unit, as the last line of its standard output. README.md in this
// directory defines the workloads and metrics and says how they interact.
//
//	bash benchmark/run.sh --workload fig7-sweep --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload fig7-sweep --seed 1 --seconds 25 --trace 1
//	bash benchmark/run.sh --selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

const (
	harnessVersion = "1"
	specFile       = "BENCHMARK.json"
	// The harness runs every workload at this many Ps whatever the machine
	// has: one for the kernel or two shard workers, one for the collector.
	procs     = 2
	gcPercent = 100
)

// endToEndNames and perLayerNames are the metrics the harness computes;
// BENCHMARK.json must list exactly these, and carries their units.
var endToEndNames = []string{"setup_s", "wall_s", "cpu_s", "mallocs_m", "alloc_mb", "tx_k"}

var derivedNames = []string{
	"experiment.us_per_frame", "experiment.setup_us_per_node", "experiment.download_vs",
	"experiment.completed_frac", "experiment.frames_per_download", "multihop.forward_accuracy",
	"core.state_kb_per_node", "harness.wall_median_s", "harness.wall_iqr_frac",
	"harness.setup_median_s", "harness.reps",
}

func perLayerNames() []string {
	names := append(probeNames(), derivedNames...)
	for _, l := range tracedLayers {
		names = append(names, l+".cpu_share", l+".alloc_share")
	}
	return append(names, "runtime.gc_cpu_share", "runtime.gc_cycles", "runtime.peak_rss_mb", "harness.trace_overhead_frac")
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, s.check()
}

// sameNames reports the first name one list has and the other lacks.
func sameNames(kind string, listed, computed []string) error {
	have := map[string]bool{}
	for _, n := range listed {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("%s: %s name %q is not a valid name", specFile, kind, n)
		}
		if have[n] {
			return fmt.Errorf("%s: %s name %q is listed twice", specFile, kind, n)
		}
		have[n] = true
	}
	for _, n := range computed {
		if !have[n] {
			return fmt.Errorf("%s: %s %q is computed by the harness but not listed", specFile, kind, n)
		}
		delete(have, n)
	}
	for n := range have {
		return fmt.Errorf("%s: %s %q is listed but unknown to the harness", specFile, kind, n)
	}
	return nil
}

func specNames(ms []metricSpec) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

// check holds the file's workload and metric names against the harness's.
func (s spec) check() error {
	var listed, computed []string
	for _, w := range s.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		computed = append(computed, w.name)
	}
	if err := sameNames("workload", listed, computed); err != nil {
		return err
	}
	if err := sameNames("end-to-end metric", specNames(s.EndToEnd), endToEndNames); err != nil {
		return err
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil {
			return fmt.Errorf("%s: end-to-end metric %q has no bound", specFile, m.Name)
		}
	}
	return sameNames("per-layer metric", specNames(s.PerLayer), perLayerNames())
}

// manifest says what produced an output: it heads every report line and
// every trace file.
type manifest struct {
	HarnessVersion string  `json:"harness_version"`
	Revision       string  `json:"revision"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"nproc"`
	GOGC           int     `json:"gogc"`
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Traced         bool    `json:"traced"`
	Reps           int     `json:"reps"`
	ProbeRounds    int     `json:"probe_rounds"`
}

// revision is the git revision the binary was built from, when the build
// saw a repository.
func revision() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// pinRuntime fixes the scheduler and collector settings every number is
// measured under, whatever GOGC, GOMEMLIMIT or the machine say.
func pinRuntime() error {
	if n := runtime.NumCPU(); n < procs {
		return fmt.Errorf("the benchmark needs %d CPUs, this machine has %d", procs, n)
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(gcPercent)
	debug.SetMemoryLimit(math.MaxInt64)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is the line before it: everything the run knows.
type report struct {
	Manifest manifest               `json:"manifest"`
	Metrics  map[string]metricValue `json:"metrics"`
	Failures []string               `json:"failures,omitempty"`
}

// withUnits gives every listed metric that has a finite value its unit, and
// names the listed metrics that have none.
func withUnits(listed []metricSpec, values map[string]float64) (out map[string]metricValue, missing []string) {
	out = make(map[string]metricValue, len(listed))
	for _, m := range listed {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, missing
}

// runWorkload measures one workload and prints the report and result lines.
// A run with a failed operation prints them too, and is an error.
func runWorkload(sp spec, w workload, seed int64, seconds float64, trace bool, stdout io.Writer) error {
	if err := pinRuntime(); err != nil {
		return err
	}
	r, err := newRunner(w, seed)
	if err != nil {
		return err
	}
	man := manifest{
		HarnessVersion: harnessVersion, Revision: revision(), GoVersion: runtime.Version(),
		GOMAXPROCS: procs, NumCPU: runtime.NumCPU(), GOGC: gcPercent,
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: trace,
	}
	var values map[string]float64
	wanted := sp.EndToEnd
	if trace {
		wanted = sp.PerLayer
		if values, err = r.traced(&man); err != nil {
			return err
		}
	} else {
		m := r.measure(time.Duration(seconds * float64(time.Second)))
		man.Reps, man.ProbeRounds = len(m.reps), len(m.probes)
		values = r.endToEnd(m)
		for name, v := range r.derived(m, values) {
			values[name] = v
		}
	}

	all, _ := withUnits(slices.Concat(sp.EndToEnd, sp.PerLayer), values)
	last, missing := withUnits(wanted, values)
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(report{Manifest: man, Metrics: all, Failures: r.failures}); err != nil {
		return err
	}
	res := result{Correct: r.failed == 0 && len(missing) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: last}
	if err := enc.Encode(res); err != nil {
		return err
	}
	switch {
	case r.failed > 0:
		return fmt.Errorf("%d of %d operations failed, first: %s", r.failed, r.attempted, r.failures[0])
	case len(missing) > 0:
		return fmt.Errorf("no finite value for %v", missing)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "workload seed, fed to Scale.BaseSeed")
	seconds := fs.Float64("seconds", 0, "how long to measure (default: run_seconds of "+specFile+")")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	list := fs.Bool("list", false, "list the workloads and exit")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice, in both orders, and hold the gaps against the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	switch {
	case *list:
		for _, w := range sp.Workloads {
			fmt.Fprintf(stdout, "%-14s %s\n", w.Name, w.Why)
		}
		return nil
	case *selfcheck:
		return selfCheck(sp, *seed, *seconds, stdout)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (see -list)", *name)
	}
	return runWorkload(sp, w, *seed, *seconds, *trace == 1, stdout)
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(1)
	}
}
