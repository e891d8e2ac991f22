// Command dapes-sim runs one scenario from the experiment catalog — paper
// reproductions, baselines, ablations, or the post-paper workloads — with
// custom parameters, fanning trials across a worker pool. Use -list to
// enumerate what can run, -scenario to pick one (fig7-dapes by default),
// and -format=json|csv for machine-readable results. The seven DAPES
// design flags set the design of every scenario that runs the scale's;
// beside one that fixes its own (the baselines, the Fig.-8 outdoor runs,
// the ablations) they are refused.
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

	"dapes/internal/core"
	"dapes/internal/experiment"
	"dapes/internal/plan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapes-sim:", err)
		os.Exit(1)
	}
}

// options is dapes-sim's command line once parsed: the scale the run reads,
// its design included, and what surrounds the run.
type options struct {
	fs    *flag.FlagSet
	scale experiment.Scale

	list                              bool
	scenario, format, outPath, faults string
	cpuprofile, memprofile            string
	wifiRange                         float64
}

// parseFlags parses args into a run's options.
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("dapes-sim", flag.ContinueOnError)
	o := &options{fs: fs, scale: experiment.ReducedScale()}
	s := &o.scale
	fs.BoolVar(&o.list, "list", false, "list registered scenarios and exit")
	fs.StringVar(&o.scenario, "scenario", "fig7-dapes", "registered scenario to run (see -list); the design flags set its design, if it reads one")
	fs.IntVar(&s.Workers, "workers", 1, "concurrent trials; results are identical at any pool size")
	fs.StringVar(&o.format, "format", "text", "output format: text, json, or csv")
	fs.StringVar(&o.outPath, "o", "", "write results to this file instead of stdout")

	fs.Float64Var(&o.wifiRange, "range", 60, "WiFi range in meters (paper: 20-100)")
	fs.IntVar(&s.NumFiles, "files", s.NumFiles, "files per collection")
	fs.IntVar(&s.PacketsPerFile, "packets", s.PacketsPerFile, "packets per file (paper full scale: 1024)")
	fs.IntVar(&s.Trials, "trials", s.Trials, "trials (paper: 10)")
	fs.Int64Var(&s.BaseSeed, "seed", s.BaseSeed, "base random seed; trial t runs at TrialSeed(seed, t)")
	fs.DurationVar(&s.Horizon, "horizon", s.Horizon, "per-trial virtual time limit")
	fs.StringVar(&o.faults, "faults", "", "fault file: a plan's [faults] section (crashes, bursty loss, jammer; see docs/EXPERIMENTS.md)")

	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")

	// The design flags default to the scale's design, the paper's
	// (TestBuiltInStacksMatchScenarios holds the two to one trial).
	strategy := fs.String("strategy", "local", "RPF strategy: local or encounter")
	fs.BoolVar(&s.Design.RandomStart, "random-start", s.Design.RandomStart, "start downloads at a random packet")
	interleave := fs.Bool("interleave", true, "interleave bitmap and data exchanges")
	fs.IntVar(&s.Design.BitmapsBefore, "bitmaps", s.Design.BitmapsBefore, "bitmaps before data (0 = all; bitmaps-first mode only)")
	fs.BoolVar(&s.Design.UsePEBA, "peba", s.Design.UsePEBA, "enable PEBA collision mitigation")
	fs.BoolVar(&s.Design.Multihop, "multihop", s.Design.Multihop, "enable intermediate-node forwarding")
	fs.Float64Var(&s.Design.ForwardProb, "forward-prob", s.Design.ForwardProb, "probabilistic forwarding rate, in (0, 1]")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch *strategy {
	case "local":
		s.Design.Strategy = core.LocalNeighborhoodRPF
	case "encounter":
		s.Design.Strategy = core.EncounterBasedRPF
	default:
		return nil, fmt.Errorf("unknown strategy %q (want local or encounter)", *strategy)
	}
	s.Design.AdvertMode = core.BitmapsFirst
	if *interleave {
		s.Design.AdvertMode = core.Interleaved
	}
	return o, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		// A bad flag has printed usage; -h asked for it.
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if o.list {
		out, f, closeOut, err := experiment.OpenOutput(o.outPath, o.format)
		if err != nil {
			return err
		}
		defer closeOut()
		return listScenarios(out, f)
	}
	// Everything the run reads is resolved before anything runs, and -o is
	// opened only once there is a result: a rejected input leaves an
	// existing results file as it was.
	if _, err := experiment.ParseFormat(o.format); err != nil {
		return err
	}
	sc, err := experiment.Find(o.scenario)
	if err != nil {
		return err
	}
	s := o.scale
	if o.faults != "" {
		fp, err := plan.ParseFaultsFile(o.faults)
		if err != nil {
			return fmt.Errorf("faults: %w", err)
		}
		s.Faults = fp
	}
	if err := rejectIgnoredFlags(o.fs, sc, s); err != nil {
		return err
	}
	// What Runner.Run would refuse is refused before a profile is created.
	if err := (experiment.Runner{}).Check(sc, s, o.wifiRange); err != nil {
		// Validate reports the design first, so this is the error of a zero
		// rate, which core once ran at its 20% default.
		if s.Design.ForwardProb == 0 {
			err = fmt.Errorf("%w; -multihop=false turns forwarding off", err)
		}
		return err
	}

	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if o.memprofile != "" {
		// Written on the way out (error paths included) so a profile of the
		// live heap always lands next to whatever the run produced.
		defer func() {
			f, err := os.Create(o.memprofile)
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

	res, err := experiment.Runner{}.Run(sc, s, o.wifiRange) // pool size comes from s.Workers
	if err != nil {
		return err
	}
	out, f, closeOut, err := experiment.OpenOutput(o.outPath, o.format)
	if err != nil {
		return err
	}
	defer closeOut()
	return experiment.EmitRun(out, f, res)
}

// axisFlags are the flags that set an input a scenario may refuse: the
// seven design flags set Scale.Design.
var axisFlags = map[string]experiment.Axis{
	"range": experiment.AxisRange, "faults": experiment.AxisFaults,
	"strategy": experiment.AxisDesign, "random-start": experiment.AxisDesign, "interleave": experiment.AxisDesign,
	"bitmaps": experiment.AxisDesign, "peba": experiment.AxisDesign, "multihop": experiment.AxisDesign,
	"forward-prob": experiment.AxisDesign,
}

// rejectIgnoredFlags fails, naming them, on flags set on the command line
// that the selected scenario sc under scale s refuses
// (experiment.Scenario.Refuses): -range or a design flag beside a world
// that fixes its range or design, and -faults beside one that applies no
// fault plan.
func rejectIgnoredFlags(fs *flag.FlagSet, sc *experiment.Scenario, s experiment.Scale) error {
	var ignored []string
	fs.Visit(func(fl *flag.Flag) {
		if sc.Refuses(s, axisFlags[fl.Name]) != "" {
			ignored = append(ignored, "-"+fl.Name)
		}
	})
	if len(ignored) == 0 {
		return nil
	}
	return fmt.Errorf("-scenario %s ignores %s", sc.Name, strings.Join(ignored, ", "))
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
