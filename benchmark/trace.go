package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// span is one interval the harness recorded around a call it made. A
// TrialFunc is opaque from outside, so the tree is run -> round -> cell and
// nothing below; the profile attributes what happens inside a cell.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing: end-to-end runs measure with tracing off.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartUS: time.Since(l.t0).Microseconds()})
	return id
}

func (l *spanLog) end(id int) {
	if l != nil {
		l.spans[id-1].EndUS = time.Since(l.t0).Microseconds()
	}
}

const (
	// A traced run profiles repetitions until this much CPU is sampled: at
	// 100 samples a second a 1% layer then holds ten samples.
	tracedCPUSeconds = 10.0
	maxTracedReps    = 16

	traceDir = "benchmark/out"
)

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntimeMetrics() []float64 {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

func peakRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports KiB
}

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	Manifest manifest `json:"manifest"`
	Spans    []span   `json:"spans"`
	Profile  folded   `json:"profile"`
}

// traced runs the workload untraced once, then under the CPU profiler, then
// the layer probes, and returns every per-layer metric. m.reps of the
// returned measurement holds the untraced and the traced repetitions.
func (r *runner) traced(man *manifest) (map[string]float64, error) {
	r.spans = &spanLog{t0: time.Now()}
	r.root = r.spans.begin("run "+r.w.name, 0)
	before := readRuntimeMetrics()

	var m measurement
	for n := 0; n < minProbeRounds; n++ {
		m.probes = append(m.probes, r.probe())
	}
	untraced := [][]sample{r.rep()}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	var tracedReps [][]sample
	for cpu := 0.0; cpu < tracedCPUSeconds && len(tracedReps) < maxTracedReps; {
		round := r.rep()
		tracedReps = append(tracedReps, round)
		for _, s := range round {
			cpu += s.cpu
		}
	}
	pprof.StopCPUProfile()
	after := readRuntimeMetrics()
	m.reps = append(untraced, tracedReps...)

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	prf := fold(samples)

	out := r.derived(m, r.endToEnd(m))
	shares(out, prf.CPU, ".cpu_share")
	shares(out, prf.Alloc, ".alloc_share")
	out["runtime.gc_cpu_share"] = (after[0] - before[0]) / (after[1] - before[1])
	out["runtime.gc_cycles"] = after[2] - before[2]
	out["harness.trace_overhead_frac"] = bestSum(tracedReps, wallOf)/bestSum(untraced, wallOf) - 1

	id := r.spans.begin("layer probes", r.root)
	runProbes(out)
	r.spans.end(id)
	out["runtime.peak_rss_mb"] = peakRSSMB()
	r.spans.end(r.root)

	man.Reps, man.ProbeRounds = len(m.reps), len(m.probes)
	return out, writeTrace(r.w.name, traceFile{Manifest: *man, Spans: r.spans.spans, Profile: prf})
}

func writeTrace(workload string, t traceFile) error {
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return os.WriteFile(filepath.Join(traceDir, "trace-"+workload+".json"), data, 0o644)
}
