// Command dapes-sim runs one scenario from the experiment catalog — paper
// reproductions, baselines, ablations, or the post-paper workloads — with
// custom parameters, fanning trials across a worker pool. Use -list to
// enumerate what can run, -scenario to pick one, and -format=json|csv for
// machine-readable results. The legacy -system flag still drives an ad-hoc
// DAPES/Bithoc/Ekta configuration built from the individual knobs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dapes/internal/core"
	"dapes/internal/experiment"
	"dapes/internal/fault"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapes-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dapes-sim", flag.ContinueOnError)
	// The ad-hoc DAPES flags default to the configuration the fig7-dapes
	// scenario runs.
	paper := experiment.PaperDefaults()
	var (
		list     = fs.Bool("list", false, "list registered scenarios and exit")
		scenario = fs.String("scenario", "", "registered scenario to run (see -list); takes no -system or ad-hoc DAPES flag")
		workers  = fs.Int("workers", 1, "concurrent trials; results are identical at any pool size")
		format   = fs.String("format", "text", "output format: text, json, or csv")
		outPath  = fs.String("o", "", "write results to this file instead of stdout")

		wifiRange = fs.Float64("range", 60, "WiFi range in meters (paper: 20-100)")
		files     = fs.Int("files", 10, "files per collection")
		packets   = fs.Int("packets", 20, "packets per file (paper full scale: 1024)")
		trials    = fs.Int("trials", 3, "trials (paper: 10)")
		seed      = fs.Int64("seed", 1, "base random seed; trial t runs at TrialSeed(seed, t)")
		horizon   = fs.Duration("horizon", 45*time.Minute, "per-trial virtual time limit")
		faults    = fs.String("faults", "", "fault-plan file (crashes, bursty loss, jammer; see docs/EXPERIMENTS.md)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")

		system      = fs.String("system", "dapes", "ad-hoc stack when -scenario is unset: dapes, bithoc, or ekta")
		strategy    = fs.String("strategy", strategyName(paper.Strategy), "RPF strategy: local or encounter")
		randomStart = fs.Bool("random-start", paper.RandomStart, "start downloads at a random packet")
		interleave  = fs.Bool("interleave", paper.AdvertMode == core.Interleaved, "interleave bitmap and data exchanges")
		bitmaps     = fs.Int("bitmaps", paper.BitmapsBefore, "bitmaps before data (0 = all; bitmaps-first mode only)")
		peba        = fs.Bool("peba", paper.UsePEBA, "enable PEBA collision mitigation")
		multihopOn  = fs.Bool("multihop", paper.Multihop, "enable intermediate-node forwarding")
		forwardProb = fs.Float64("forward-prob", paper.ForwardProb, "probabilistic forwarding rate, in (0, 1]")
	)
	if err := fs.Parse(args); err != nil {
		// A bad flag has printed usage; -h asked for it.
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		out, f, closeOut, err := experiment.OpenOutput(*outPath, *format)
		if err != nil {
			return err
		}
		defer closeOut()
		return listScenarios(out, f)
	}
	// Everything the run reads is resolved before anything runs, and -o is
	// opened only once there is a result: a rejected input leaves an
	// existing results file as it was.
	if _, err := experiment.ParseFormat(*format); err != nil {
		return err
	}
	var sc *experiment.Scenario
	var err error
	if *scenario != "" {
		sc, err = experiment.Find(*scenario)
	} else {
		// Legacy path: build an ad-hoc scenario from the individual knobs.
		sc, err = adhocScenario(*system, adhocKnobs{
			strategy:    *strategy,
			randomStart: *randomStart,
			interleave:  *interleave,
			bitmaps:     *bitmaps,
			peba:        *peba,
			multihop:    *multihopOn,
			forwardProb: *forwardProb,
		})
	}
	if err != nil {
		return err
	}
	if err := rejectIgnoredFlags(fs, *scenario, *system); err != nil {
		return err
	}

	s := experiment.ReducedScale()
	s.NumFiles = *files
	s.PacketsPerFile = *packets
	s.Trials = *trials
	s.BaseSeed = *seed
	s.Horizon = *horizon
	s.Workers = *workers
	if *faults != "" {
		fp, err := fault.ParseFile(*faults)
		if err != nil {
			return fmt.Errorf("faults: %w", err)
		}
		s.Faults = fp
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Written on the way out (error paths included) so a profile of the
		// live heap always lands next to whatever the run produced.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dapes-sim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dapes-sim: memprofile:", err)
			}
		}()
	}

	res, err := experiment.Runner{}.Run(sc, s, *wifiRange) // pool size comes from s.Workers
	if err != nil {
		return err
	}
	out, f, closeOut, err := experiment.OpenOutput(*outPath, *format)
	if err != nil {
		return err
	}
	defer closeOut()
	return experiment.EmitRun(out, f, res)
}

// adhocFlags are the knobs of the ad-hoc DAPES stack: only a run with
// -system dapes and no -scenario reads them.
var adhocFlags = map[string]bool{
	"strategy": true, "random-start": true, "interleave": true, "bitmaps": true,
	"peba": true, "multihop": true, "forward-prob": true,
}

// rejectIgnoredFlags fails, naming them, on flags set on the command line
// that the selected run would ignore: -system and the ad-hoc DAPES flags
// beside -scenario, and the ad-hoc DAPES flags beside -system bithoc or ekta.
func rejectIgnoredFlags(fs *flag.FlagSet, scenario, system string) error {
	var ignored []string
	fs.Visit(func(fl *flag.Flag) {
		if adhocFlags[fl.Name] && (scenario != "" || system != "dapes") || fl.Name == "system" && scenario != "" {
			ignored = append(ignored, "-"+fl.Name)
		}
	})
	if len(ignored) == 0 {
		return nil
	}
	by := "-system " + system
	if scenario != "" {
		by = "-scenario " + scenario
	}
	return fmt.Errorf("%s ignores %s", by, strings.Join(ignored, ", "))
}

type adhocKnobs struct {
	strategy    string
	randomStart bool
	interleave  bool
	bitmaps     int
	peba        bool
	multihop    bool
	forwardProb float64
}

func adhocScenario(system string, k adhocKnobs) (*experiment.Scenario, error) {
	switch system {
	case "dapes":
		cfg := core.Config{
			Strategy:      core.LocalNeighborhoodRPF,
			RandomStart:   k.randomStart,
			AdvertMode:    core.Interleaved,
			BitmapsBefore: k.bitmaps,
			UsePEBA:       k.peba,
			Multihop:      k.multihop,
			ForwardProb:   k.forwardProb,
		}
		switch k.strategy {
		case "local":
		case "encounter":
			cfg.Strategy = core.EncounterBasedRPF
		default:
			return nil, fmt.Errorf("unknown strategy %q (want local or encounter)", k.strategy)
		}
		if !k.interleave {
			cfg.AdvertMode = core.BitmapsFirst
		}
		// core reads a zero ForwardProb as its 20% default, so 0 would run
		// at 20% under a label that says 0.
		if !(k.forwardProb > 0 && k.forwardProb <= 1) {
			hint := ""
			if k.forwardProb == 0 {
				hint = "; -multihop=false turns forwarding off"
			}
			return nil, fmt.Errorf("-forward-prob = %v: want a probability in (0, 1]%s", k.forwardProb, hint)
		}
		if k.bitmaps < 0 {
			return nil, fmt.Errorf("-bitmaps = %d: want 0 (all) or more", k.bitmaps)
		}
		return &experiment.Scenario{
			Name: "dapes(custom)",
			Run: func(s experiment.Scale, wifiRange float64, trial int) (experiment.TrialResult, error) {
				return experiment.RunDAPESTrial(s, wifiRange, trial, cfg)
			},
		}, nil
	case "bithoc":
		return &experiment.Scenario{Name: "bithoc", Run: experiment.RunBithocTrial}, nil
	case "ekta":
		return &experiment.Scenario{Name: "ekta", Run: experiment.RunEktaTrial}, nil
	}
	return nil, fmt.Errorf("unknown system %q", system)
}

// strategyName is the -strategy spelling of an RPF strategy.
func strategyName(k core.StrategyKind) string {
	if k == core.EncounterBasedRPF {
		return "encounter"
	}
	return "local"
}

func listScenarios(w io.Writer, f experiment.Format) error {
	t := experiment.Table{
		Title:  "Registered scenarios (run with -scenario NAME)",
		Header: []string{"name", "summary"},
	}
	for _, sc := range experiment.Scenarios() {
		t.Rows = append(t.Rows, []string{sc.Name, sc.Summary})
	}
	return experiment.EmitTables(w, f, t)
}
