// Command bench-snapshot emits a machine-readable performance snapshot of
// the hot paths this repo optimizes, for the perf-trajectory files checked
// in at the repo root (BENCH_<n>.json) and regenerated by `make bench-json`
// in CI. Unlike `go test -bench` output, the snapshot is stable JSON:
// downstream tooling can diff allocs/op and scenario download times across
// PRs without scraping benchmark logs.
//
// The snapshot's sections:
//
//   - wire: the encode-once/decode-once codec path (cached encode, shared
//     decode, the per-extra-receiver memo hit)
//   - phy: one full dense broadcast through the grid-indexed medium
//   - kernel: the event-kernel hot paths — the schedule/cancel/reschedule
//     churn mix on both queue backends (old heap vs new wheel) and the
//     Timer.Reset steady state, whose 0 allocs/op is a pinned contract
//   - scenarios: download time, transmissions, and total allocations for
//     the dense urban-grid scenarios at a small fixed scale
//   - shard: the shard-scaling section — wall-clock of one dense trial on
//     the sequential kernel versus the space-partitioned kernel at 2 and 4
//     stripes, plus the headline urban-metro trial (50k nodes, 4 stripes)
//     at the plan scale of plans/urban-metro.toml. Times are informational
//     (they move with hardware and cores); the section's allocs/op gate at
//     a relative +50% like the dense scenarios.
//   - fault: one urban-grid-chaos trial — crashes, cold restarts, and
//     Gilbert-Elliott loss through internal/fault — pricing what the
//     hardening costs on top of the clean urban-grid scenario above it.
//     Purely informational: neither bench-check nor the trajectory report
//     gates it.
//
// Numbers move with hardware; the trajectory tracks allocs/op (which do
// not) and relative regressions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"dapes/internal/experiment"
	"dapes/internal/geo"
	"dapes/internal/ndn"
	"dapes/internal/phy"
	"dapes/internal/sim"
)

// Bench is one measured entry.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// ScenarioResult is one dense-scenario run.
type ScenarioResult struct {
	Name            string  `json:"name"`
	DownloadTime90S float64 `json:"download_time_90_s"`
	Transmissions90 float64 `json:"transmissions_90"`
	// Allocs is the total heap allocation count for the whole trial set —
	// the O(senders x receivers) encode/parse traffic the zero-copy wire
	// path removed shows up here first.
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"alloc_bytes"`
}

// Snapshot is the emitted document.
type Snapshot struct {
	Issue     int              `json:"issue"`
	GoVersion string           `json:"go_version"`
	GOOS      string           `json:"goos"`
	GOARCH    string           `json:"goarch"`
	Wire      []Bench          `json:"wire"`
	Phy       []Bench          `json:"phy"`
	Kernel    []Bench          `json:"kernel"`
	Scenarios []ScenarioResult `json:"scenarios"`
	Shard     []Bench          `json:"shard,omitempty"`
	// Fault is informational only (chaos trials carry deliberate extra work
	// — re-fetches after cold restarts — that no alloc gate should pin).
	Fault []Bench `json:"fault,omitempty"`
	// Rebaselined lists gated trajectory metrics ("<name> (<unit>)") whose
	// values this snapshot moved on purpose — a documented behavior change,
	// not a regression. The dapes-plan trajectory report skips the incoming
	// gate for these and resumes gating from this snapshot's value; the
	// bench-check gate (re-measure vs this committed file) is unaffected.
	// Stamped by -rebase / -rebase-note (see the Makefile's bench-json
	// target for the current list and rationale).
	Rebaselined    []string `json:"rebaselined,omitempty"`
	RebaselineNote string   `json:"rebaseline_note,omitempty"`
}

func bench(name string, fn func(b *testing.B)) Bench {
	r := testing.Benchmark(fn)
	return Bench{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// wireBenches measures the codec path with the public API: a stored packet
// answering repeatedly (cached encode), one broadcast decoded once, and the
// k-th receiver's memo hit.
func wireBenches() []Bench {
	mk := func() *ndn.Data {
		d := &ndn.Data{Name: ndn.ParseName("/field-report/image-000/17"), Content: make([]byte, 1000)}
		d.SignDigest()
		return d
	}
	out := []Bench{
		bench("wire/encode-cached", func(b *testing.B) {
			d := mk()
			d.Encode()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(d.Encode()) == 0 {
					b.Fatal("empty encode")
				}
			}
		}),
		bench("wire/decode-once", func(b *testing.B) {
			wire := mk().Encode()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ndn.NewPacket(wire).Data() == nil {
					b.Fatal("decode failed")
				}
			}
		}),
		bench("wire/extra-receiver", func(b *testing.B) {
			pkt := ndn.NewPacket(mk().Encode())
			first := pkt.Data()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if pkt.Data() != first {
					b.Fatal("memo miss")
				}
			}
		}),
	}
	return out
}

// phyBenches replays the BenchmarkBroadcastDense world (constant density,
// grid index) at N=1000: one broadcast end to end including delivery.
func phyBenches() []Bench {
	const n = 1000
	return []Bench{
		bench("phy/broadcast-dense/grid/N=1000", func(b *testing.B) {
			k := sim.NewKernel(42)
			m := phy.NewMedium(k, phy.Config{Range: 60, Index: phy.IndexGrid})
			side := math.Sqrt(float64(n)) * 45
			area := geo.Rect{Width: side, Height: side}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < n; i++ {
				m.Attach(geo.NewRandomDirection(geo.RandomDirectionConfig{
					Area:  area,
					Start: geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side},
					RNG:   rand.New(rand.NewSource(int64(i + 1))),
				}))
			}
			radios := m.Radios()
			payload := make([]byte, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Broadcast(radios[i%n], payload)
				k.Run(0)
			}
		}),
	}
}

// kernelBenches measures the event kernel: the schedule-far/cancel-early
// churn that dominates every protocol layer's timer workload, run on the
// reference heap and the timer wheel (the old-vs-new comparison), plus the
// steady-state Timer.Reset whose 0 allocs/op the perf gate pins.
func kernelBenches() []Bench {
	const pending = 100_000
	churn := func(kind sim.QueueKind) func(b *testing.B) {
		return func(b *testing.B) {
			k := sim.Options{Queue: kind}.NewKernel(1)
			fn := func() {}
			timers := make([]*sim.Timer, pending)
			for i := range timers {
				timers[i] = k.NewTimer(fn)
				timers[i].Reset(time.Second + time.Duration(i)*time.Millisecond)
			}
			rngState := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rngState = rngState*6364136223846793005 + 1442695040888963407
				j := int((rngState >> 33) % uint64(pending))
				timers[j].Reset(time.Second + time.Duration(rngState%uint64(8*time.Second)))
			}
		}
	}
	return []Bench{
		bench("kernel/churn/heap/pending=100000", churn(sim.QueueHeap)),
		bench("kernel/churn/wheel/pending=100000", churn(sim.QueueWheel)),
		bench("kernel/timer-reset", func(b *testing.B) {
			k := sim.NewKernel(1)
			fn := func() {}
			for i := 0; i < 1024; i++ {
				k.Schedule(time.Hour+time.Duration(i)*time.Second, fn)
			}
			tm := k.NewTimer(fn)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Reset(time.Duration(i%7) * time.Millisecond)
			}
		}),
	}
}

// shardBenches measures the parallel kernel: one dense trial
// (urban-grid-xl's 25x mix at a short horizon) on the sequential
// reference versus the partitioned kernel at 2 and 4 stripes with the
// relaxed urban-metro lookahead, plus the headline metro trial — the
// urban-metro scenario at the exact [scale] of plans/urban-metro.toml
// (50,003 nodes, 4 density-balanced stripes). Wall-clock is recorded for
// the speedup trend; allocs/op gate at +50% in bench-check.
func shardBenches() []Bench {
	dense := experiment.ReducedScale()
	dense.Trials = 1
	dense.NumFiles = 1
	dense.PacketsPerFile = 8
	dense.PacketSize = 200
	dense.Horizon = 10 * time.Second
	dense.MobileDown *= 25
	dense.PureForwarders *= 25
	dense.Intermediates *= 25
	dense.AreaSide = 900
	const wifiRange = 60.0
	opts := experiment.PaperDefaults()
	la := 10 * phy.Config{Range: wifiRange, LossRate: dense.LossRate}.ConservativeLookahead()

	// Zero shards is the one sequential kernel (the lookahead is then unused).
	trial := func(shards int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.RunShardedDAPESTrial(dense, wifiRange, 0, opts, shards, la); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// The metro trial runs the registered urban-metro scenario (which
	// multiplies the mobile mix by 25 and scales the area to the paper's
	// density) at the plan's exact [scale]: 2+8+1912+80 expands to 50,003
	// nodes on 4 stripes under the scenario's own relaxed lookahead.
	metro := experiment.ReducedScale()
	metro.Trials = 1
	metro.NumFiles = 1
	metro.PacketsPerFile = 4
	metro.PacketSize = 200
	metro.Horizon = 10 * time.Second
	metro.Stationary = 2
	metro.MobileDown = 8
	metro.PureForwarders = 1912
	metro.Intermediates = 80
	metro.BaseSeed = 11
	metro.Shards = 4
	metroSC, _ := experiment.Lookup("urban-metro")
	metroTrial := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := metroSC.Run(metro, wifiRange, 0); err != nil {
				b.Fatal(err)
			}
		}
	}

	return []Bench{
		bench("shard/urban-dense-trial/sequential", trial(0)),
		bench("shard/urban-dense-trial/shards=2", trial(2)),
		bench("shard/urban-dense-trial/shards=4", trial(4)),
		bench("shard/urban-metro-trial/shards=4", metroTrial),
	}
}

// faultBenches measures the fault engine end to end: one urban-grid-chaos
// trial at the snapshot scale, default chaos plan (a third of the eligible
// nodes crash and cold-restart over a bursty GE channel). Informational —
// see the Snapshot.Fault doc.
func faultBenches() []Bench {
	s := snapshotScale()
	sc, ok := experiment.Lookup("urban-grid-chaos")
	if !ok {
		fmt.Fprintln(os.Stderr, "bench-snapshot: scenario urban-grid-chaos not registered")
		os.Exit(1)
	}
	return []Bench{
		bench("fault/urban-grid-chaos-trial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sc.Run(s, 60, 0); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}
}

// snapshotScale keeps the dense scenarios CI-sized while leaving enough
// traffic for the wire path to dominate: the golden-trace scale from
// internal/experiment, verbatim.
func snapshotScale() experiment.Scale {
	return experiment.Scale{
		Trials:         1,
		NumFiles:       2,
		PacketsPerFile: 4,
		PacketSize:     200,
		Ranges:         []float64{60},
		Horizon:        90 * time.Second,
		Stationary:     2,
		MobileDown:     2,
		PureForwarders: 1,
		Intermediates:  1,
		LossRate:       0.10,
		BaseSeed:       7,
	}
}

func runScenario(name string) (ScenarioResult, error) {
	sc, ok := experiment.Lookup(name)
	if !ok {
		return ScenarioResult{}, fmt.Errorf("scenario %q not registered", name)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := experiment.Runner{Workers: 1}.Run(sc, snapshotScale(), 60)
	if err != nil {
		return ScenarioResult{}, err
	}
	runtime.ReadMemStats(&after)
	return ScenarioResult{
		Name:            name,
		DownloadTime90S: res.DownloadTime90.Seconds(),
		Transmissions90: res.Transmissions90,
		Allocs:          after.Mallocs - before.Mallocs,
		Bytes:           after.TotalAlloc - before.TotalAlloc,
	}, nil
}

// checkAgainst compares the freshly measured snapshot to a committed one and
// returns one message per regression. Only hardware-independent numbers
// gate: allocs/op of the wire and kernel micro-benches must not grow at all
// (they are exact, deterministic counts — Timer.Reset in particular is
// pinned at 0), the phy broadcast bench gets +2 of slack (pool warm-up
// amortizes differently across b.N), and a scenario's total allocation
// count may drift up to 50% before it counts as a regression (runtime
// background allocation adds noise). The shard trials gate their allocs/op
// the same relative way — whole-trial allocation counts, not exact
// per-path counts. Times never gate.
func checkAgainst(prev, cur Snapshot) []string {
	var msgs []string
	benchByName := func(list []Bench) map[string]Bench {
		m := make(map[string]Bench, len(list))
		for _, b := range list {
			m[b.Name] = b
		}
		return m
	}
	sections := []struct {
		prev, cur []Bench
		slack     int64
	}{
		{prev.Wire, cur.Wire, 0},
		{prev.Phy, cur.Phy, 2},
		{prev.Kernel, cur.Kernel, 0},
	}
	for _, sec := range sections {
		prevByName := benchByName(sec.prev)
		for _, b := range sec.cur {
			p, ok := prevByName[b.Name]
			if !ok {
				continue // new bench: nothing to regress against
			}
			if b.AllocsPerOp > p.AllocsPerOp+sec.slack {
				msgs = append(msgs, fmt.Sprintf("%s: %d allocs/op, committed snapshot has %d",
					b.Name, b.AllocsPerOp, p.AllocsPerOp))
			}
		}
	}
	prevShard := benchByName(prev.Shard)
	for _, b := range cur.Shard {
		p, ok := prevShard[b.Name]
		if !ok {
			continue
		}
		if limit := p.AllocsPerOp + p.AllocsPerOp/2; b.AllocsPerOp > limit {
			msgs = append(msgs, fmt.Sprintf("%s: %d allocs/op, committed snapshot has %d (limit %d)",
				b.Name, b.AllocsPerOp, p.AllocsPerOp, limit))
		}
	}
	prevScen := make(map[string]ScenarioResult, len(prev.Scenarios))
	for _, s := range prev.Scenarios {
		prevScen[s.Name] = s
	}
	for _, s := range cur.Scenarios {
		p, ok := prevScen[s.Name]
		if !ok {
			continue
		}
		if limit := p.Allocs + p.Allocs/2; s.Allocs > limit {
			msgs = append(msgs, fmt.Sprintf("scenario %s: %d total allocs, committed snapshot has %d (limit %d)",
				s.Name, s.Allocs, p.Allocs, limit))
		}
	}
	return msgs
}

func main() {
	out := flag.String("o", "", "write the snapshot to this file (default stdout)")
	issue := flag.Int("issue", 7, "issue number recorded in the snapshot")
	check := flag.String("check", "", "re-measure and fail if alloc numbers regressed vs this committed snapshot (no file is written)")
	rebase := flag.String("rebase", "", "comma-separated gated metrics ('name (unit)') this snapshot intentionally moves; the trajectory report treats them as baseline resets")
	rebaseNote := flag.String("rebase-note", "", "one-line rationale recorded alongside -rebase")
	flag.Parse()

	snap := Snapshot{
		Issue:          *issue,
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		Wire:           wireBenches(),
		Phy:            phyBenches(),
		Kernel:         kernelBenches(),
		Shard:          shardBenches(),
		Fault:          faultBenches(),
		RebaselineNote: *rebaseNote,
	}
	if *rebase != "" {
		for _, m := range strings.Split(*rebase, ",") {
			if m = strings.TrimSpace(m); m != "" {
				snap.Rebaselined = append(snap.Rebaselined, m)
			}
		}
	}
	for _, name := range []string{"urban-grid", "urban-grid-xl", "urban-metro"} {
		res, err := runScenario(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-snapshot:", err)
			os.Exit(1)
		}
		snap.Scenarios = append(snap.Scenarios, res)
	}

	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench-snapshot:", err)
			os.Exit(1)
		}
		var prev Snapshot
		if err := json.Unmarshal(raw, &prev); err != nil {
			fmt.Fprintf(os.Stderr, "bench-snapshot: parse %s: %v\n", *check, err)
			os.Exit(1)
		}
		if msgs := checkAgainst(prev, snap); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintln(os.Stderr, "bench-snapshot: REGRESSION:", m)
			}
			os.Exit(1)
		}
		fmt.Printf("bench-snapshot: no alloc regressions vs %s\n", *check)
		return
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-snapshot:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench-snapshot:", err)
		os.Exit(1)
	}
}
