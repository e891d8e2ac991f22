// Command dapes-plan is the declarative sweep harness. `dapes-plan run`
// executes a plan file (a TOML subset, see docs/EXPERIMENTS.md "Plan
// files"): the named scenarios run at every grid cell, cells fan across a
// worker pool, per-cell results stream as JSON-lines, and the run report
// follows: the grid table and, with a seeds axis, each configuration's
// median and quartiles over the seeds. Every cell is labelled with what it
// ran: a range or loss rate its scenario's world fixes shows the declared
// value, not the grid's.
//
// Determinism contract: a plan run's output is byte-identical for any
// -workers value — cell c's trials seed from TrialSeed(CellSeed(seed, c),
// t) and results stream in cell order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dapes/internal/experiment"
	"dapes/internal/plan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapes-plan:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf(`usage:
  dapes-plan run PLAN_FILE [-workers N] [-format text|json|csv] [-o FILE] [-no-stream]
      run a plan: stream per-cell JSON-lines, then render the run report`)
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "-h", "-help", "--help", "help":
		return usage()
	}
	return fmt.Errorf("unknown subcommand %q\n%v", args[0], usage())
}

// parseWithTrailingFlags lets flags follow the positional arguments
// (`dapes-plan run plan.toml -workers=4`), which the stock flag package
// would otherwise treat as positionals.
func parseWithTrailingFlags(fs *flag.FlagSet, args []string) ([]string, error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	var pos []string
	for fs.NArg() > 0 {
		rest := fs.Args()
		pos = append(pos, rest[0])
		if err := fs.Parse(rest[1:]); err != nil {
			return nil, err
		}
	}
	return pos, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		workers  = fs.Int("workers", 1, "grid cells in flight; output is identical at any pool size")
		format   = fs.String("format", "text", "run-report format: text, json, or csv")
		outPath  = fs.String("o", "", "write the run report to this file instead of stdout")
		noStream = fs.Bool("no-stream", false, "suppress the per-cell JSON-lines stream")
	)
	pos, err := parseWithTrailingFlags(fs, args)
	if err != nil {
		return err
	}
	if len(pos) != 1 {
		return fmt.Errorf("run wants exactly one plan file, got %d\n%v", len(pos), usage())
	}

	// The plan is read and the format checked before anything runs, and -o
	// is opened only once there is a report: a rejected input leaves an
	// existing report file as it was.
	if _, err := experiment.ParseFormat(*format); err != nil {
		return err
	}
	p, err := plan.ParseFile(pos[0])
	if err != nil {
		return err
	}

	// The JSON-lines stream goes to stdout; the report follows on the same
	// stream (or lands in -o). With -o set, stdout carries only the
	// stream, so `dapes-plan run plan.toml -o report.txt > cells.jsonl`
	// separates the two artifacts.
	var stream io.Writer = os.Stdout
	if *noStream {
		stream = nil
	}
	res, err := plan.Run(p, plan.Options{Workers: *workers, Stream: stream})
	if err != nil {
		return err
	}
	out, f, closeOut, err := experiment.OpenOutput(*outPath, *format)
	if err != nil {
		return err
	}
	defer closeOut()
	return experiment.EmitTables(out, f, res.Tables()...)
}
