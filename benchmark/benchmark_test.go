package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"slices"
	"sort"
	"testing"
	"time"

	"dapes/internal/experiment"
)

func TestOrderStatistics(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median(xs[:3]); got != 8 {
		t.Errorf("median of three = %v, want 8", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := iqrFrac(xs); got != 1 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{2, 1})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Errorf("quartiles of one value = %v, want NaN", q1)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN")
	}
	if xs[0] != 9 {
		t.Error("the helpers must not reorder their input")
	}
}

func TestBestSumTakesEachCellsBest(t *testing.T) {
	rounds := [][]sample{
		{{wall: 1}, {wall: 9}},
		{{wall: 5}, {wall: 2}},
	}
	if got := bestSum(rounds, wallOf); got != 3 {
		t.Errorf("bestSum = %v, want 1+2", got)
	}
	if got := roundTotals(rounds, wallOf); got[0] != 10 || got[1] != 7 {
		t.Errorf("roundTotals = %v, want [10 7]", got)
	}
}

// protoBuf writes the protobuf wire format the profile decoder reads.
type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(v uint64) {
	for ; v >= 0x80; v >>= 7 {
		b.WriteByte(byte(v) | 0x80)
	}
	b.WriteByte(byte(v))
}

func (b *protoBuf) intField(field int, v uint64) {
	b.varint(uint64(field) << 3)
	b.varint(v)
}

func (b *protoBuf) bytesField(field int, payload []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(payload)))
	b.Write(payload)
}

func (b *protoBuf) packedField(field int, vs ...uint64) {
	var p protoBuf
	for _, v := range vs {
		p.varint(v)
	}
	b.bytesField(field, p.Bytes())
}

// syntheticProfile has one function per location except location 9, which
// holds function 2 inlined into function 4. Strings index 1.. name the
// functions 1.. in order.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	names := []string{"",
		"runtime.mallocgc",                           // 1
		"dapes/internal/ndn.Name.String",             // 2
		"dapes/internal/core.(*Peer).Done",           // 3
		"dapes/internal/experiment.RunDAPESTrial",    // 4
		"runtime.gcBgMarkWorker",                     // 5
		"dapes/internal/merkle.Build",                // 6
		"dapes/internal/metadata.BuildCollection",    // 7
		"dapes/internal/sim.(*Kernel).Step",          // 8
		"main.(*runner).call",                        // 9
		"dapes/internal/lint/linttest.Run",           // 10
		"dapes/internal/bithoc.(*Node).onFrame[...]", // 11
	}
	var p protoBuf
	for range 2 { // sample_type: samples/count, cpu/nanoseconds
		p.bytesField(1, nil)
	}
	sample := func(ns uint64, locs ...uint64) {
		var s protoBuf
		s.packedField(1, locs...)
		s.packedField(2, 1, ns)
		p.bytesField(2, s.Bytes())
	}
	sample(30, 1, 2, 3, 4) // the allocator under Name.String is ndn's
	sample(10, 5)          // no internal frame: background
	sample(7, 6, 7)        // merkle is internal but not a traced layer
	sample(5, 1, 9)        // Name.String inlined into RunDAPESTrial
	sample(3, 8, 4, 9)     // nearest the leaf wins: sim, not experiment
	sample(2, 1, 10)       // a sub-package counts as its first path element
	sample(1, 11)          // generic instantiation
	var unpacked protoBuf  // a sample whose fields are not packed
	unpacked.intField(1, 5)
	unpacked.intField(2, 1)
	unpacked.intField(2, 4)
	p.bytesField(2, unpacked.Bytes())
	for id := uint64(1); id <= 11; id++ {
		var loc, line protoBuf
		loc.intField(1, id)
		loc.intField(3, 0x1000*id) // address: skipped
		fn := id
		if id == 9 {
			var inlined protoBuf
			inlined.intField(1, 2)
			loc.bytesField(4, inlined.Bytes())
			fn = 4
		}
		line.intField(1, fn)
		line.intField(2, 42)
		loc.bytesField(4, line.Bytes())
		p.bytesField(4, loc.Bytes())

		var f protoBuf
		f.intField(1, id)
		f.intField(2, id) // name
		f.intField(4, 0)  // filename: skipped
		p.bytesField(5, f.Bytes())
	}
	for _, s := range names {
		p.bytesField(6, []byte(s))
	}
	p.intField(12, 10_000_000) // period: skipped
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestFoldSyntheticProfile(t *testing.T) {
	samples, err := decodeProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("%d samples, want 8", len(samples))
	}
	if got := samples[3].stack; len(got) != 3 || got[1] != "dapes/internal/ndn.Name.String" || got[2] != "dapes/internal/experiment.RunDAPESTrial" {
		t.Errorf("inlined location decoded as %q", got)
	}
	f := fold(samples)
	wantCPU := map[string]int64{"ndn": 35, layerBackground: 14, layerOther: 9, "sim": 3, "bithoc": 1}
	for layer, want := range wantCPU {
		if f.CPU[layer] != want {
			t.Errorf("cpu[%s] = %d, want %d", layer, f.CPU[layer], want)
		}
	}
	if len(f.CPU) != len(wantCPU) {
		t.Errorf("cpu layers = %v, want only %v", f.CPU, wantCPU)
	}
	wantAlloc := map[string]int64{"ndn": 35, layerOther: 2}
	for layer, want := range wantAlloc {
		if f.Alloc[layer] != want {
			t.Errorf("alloc[%s] = %d, want %d", layer, f.Alloc[layer], want)
		}
	}
	if len(f.Alloc) != len(wantAlloc) {
		t.Errorf("alloc layers = %v, want only %v", f.Alloc, wantAlloc)
	}

	out := map[string]float64{}
	shares(out, f.CPU, ".cpu_share")
	sum := 0.0
	for _, l := range tracedLayers {
		sum += out[l+".cpu_share"]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("cpu shares sum to %v", sum)
	}
	if got := out["ndn.cpu_share"]; got != 35.0/62 {
		t.Errorf("ndn.cpu_share = %v, want 35/62", got)
	}
	shares(out, nil, ".alloc_share")
	if out["ndn.alloc_share"] != 0 {
		t.Error("an empty profile must give zero shares, not NaN")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("no error for bytes that are not gzip")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // a sample that claims 127 bytes and has one
	zw.Close()
	if _, err := decodeProfile(gz.Bytes()); err == nil {
		t.Error("no error for a truncated message")
	}
}

// TestDecodeRuntimeProfile holds the decoder against what runtime/pprof
// writes today, which the synthetic profile only imitates.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling is not available:", err)
	}
	for t0 := time.Now(); time.Since(t0) < 150*time.Millisecond; {
		sink += len(sorted([]float64{3, 2, 1}))
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if len(s.stack) == 0 || s.value <= 0 {
			t.Fatalf("sample without a stack or a value: %+v", s)
		}
	}
	t.Logf("%d samples", len(samples))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: got %v, want %v", what, got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: got %v, want %v", what, got, want)
			return
		}
	}
}

// tinyWorkload is one Fig. 7 trial with a 10-packet collection.
func tinyWorkload(downloaders int) workload {
	return workload{name: "tiny", requireAll: true, cells: func(seed int64) []cell {
		s := experiment.ReducedScale()
		s.NumFiles, s.PacketsPerFile = 2, 5
		s.BaseSeed = seed
		return []cell{{scenario: "fig7-dapes", scale: s, wifiRange: 60, trial: 0, nodes: 45, downloaders: downloaders}}
	}}
}

func TestMeasurePath(t *testing.T) {
	r, err := newRunner(tinyWorkload(24), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := r.measure(0)
	if len(m.probes) != minProbeRounds || len(m.reps) != minReps {
		t.Fatalf("%d probe rounds and %d repetitions, want the minima %d and %d", len(m.probes), len(m.reps), minProbeRounds, minReps)
	}
	if r.failed != 0 || r.attempted != minProbeRounds+minReps {
		t.Fatalf("attempted %d failed %d: %v", r.attempted, r.failed, r.failures)
	}
	e := r.endToEnd(m)
	sameSet(t, "end-to-end metrics", sortedKeys(e), endToEndNames)
	for name, v := range e {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v, want a positive number", name, v)
		}
	}
	if e["setup_s"] >= e["wall_s"] {
		t.Errorf("setup_s %v is not below wall_s %v", e["setup_s"], e["wall_s"])
	}
	d := r.derived(m, e)
	sameSet(t, "derived metrics", sortedKeys(d), derivedNames)
	if d["experiment.completed_frac"] != 1 || d["harness.reps"] != minReps {
		t.Errorf("completed_frac %v reps %v", d["experiment.completed_frac"], d["harness.reps"])
	}
	if got, want := d["experiment.frames_per_download"], e["tx_k"]*1e3/24; math.Abs(got-want) > 1e-6 {
		t.Errorf("frames_per_download = %v, want %v", got, want)
	}
}

func TestMeasureCountsViolations(t *testing.T) {
	r, err := newRunner(tinyWorkload(23), 1) // the world builds 24
	if err != nil {
		t.Fatal(err)
	}
	r.probe()
	if r.failed != 1 || len(r.failures) != 1 {
		t.Errorf("wrong downloader count: failed %d, failures %v", r.failed, r.failures)
	}

	r, _ = newRunner(tinyWorkload(24), 1)
	r.first = []experiment.TrialResult{{Transmissions: 1}} // not what the cell gives
	r.rep()
	if r.failed != 1 {
		t.Errorf("a result unlike the first repetition's: failed %d", r.failed)
	}

	if _, err := newRunner(workload{cells: func(int64) []cell {
		return []cell{{scenario: "fig7-dappes", scale: experiment.ReducedScale()}}
	}}, 1); err == nil {
		t.Error("no error for an unknown scenario")
	}
}

func TestSpansNest(t *testing.T) {
	r, err := newRunner(tinyWorkload(24), 1)
	if err != nil {
		t.Fatal(err)
	}
	r.spans = &spanLog{t0: time.Now()}
	r.root = r.spans.begin("run", 0)
	r.probe()
	r.spans.end(r.root)
	got := r.spans.spans
	if len(got) != 3 || got[1].Parent != got[0].ID || got[2].Parent != got[1].ID {
		t.Fatalf("spans %+v, want run -> probe -> cell", got)
	}
	for _, s := range got {
		if s.EndUS < s.StartUS {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	var off *spanLog
	off.end(off.begin("x", 0)) // tracing off records nothing and must not panic
}

// TestSpecAgreesWithHarness holds BENCHMARK.json's names against the
// harness's and the driver's limits against the file.
func TestSpecAgreesWithHarness(t *testing.T) {
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.PerLayer) > 128 || len(sp.EndToEnd) > 16 || len(sp.Workloads) > 8 {
		t.Errorf("%d per-layer, %d end-to-end, %d workloads: over the contract's caps", len(sp.PerLayer), len(sp.EndToEnd), len(sp.Workloads))
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range slices.Concat(sp.EndToEnd, sp.PerLayer) {
		if seen[m.Name] {
			t.Errorf("%s is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound != nil && (*m.Bound < 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %v is outside [0, 0.25]", m.Name, *m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("setup_s in s, lower is better, must be an end-to-end metric")
	}
	for _, name := range perLayerNames() {
		if !nameRE.MatchString(name) {
			t.Errorf("%q is not a valid metric name", name)
		}
	}

	bad := sp
	bad.EndToEnd = append([]metricSpec(nil), sp.EndToEnd[1:]...)
	if bad.check() == nil {
		t.Error("no error for a missing end-to-end metric")
	}
	bad = sp
	bad.PerLayer = append(append([]metricSpec(nil), sp.PerLayer...), metricSpec{Name: "sim.made_up_ns"})
	if bad.check() == nil {
		t.Error("no error for an unknown per-layer metric")
	}
}

func TestWorkloadDefinitions(t *testing.T) {
	want := map[string]struct{ cells, nodes, downloaders int }{
		"fig7-sweep":    {27, 45, 24},
		"bithoc-sweep":  {18, 45, 24},
		"metro-sharded": {2, 50_003, 202},
		"metro-seq":     {2, 50_003, 202},
	}
	for _, w := range workloads {
		cells := w.cells(7)
		if len(cells) != want[w.name].cells {
			t.Errorf("%s: %d cells, want %d", w.name, len(cells), want[w.name].cells)
		}
		for _, c := range cells {
			if c.nodes != want[w.name].nodes || c.downloaders != want[w.name].downloaders || c.scale.BaseSeed != 7 {
				t.Errorf("%s: cell %+v", w.name, c)
			}
			if err := c.scale.Validate(); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}
