// Command dapes-bench regenerates every table and figure of the paper's
// evaluation section and prints them in the same organization the paper
// reports. Scale is selectable (-scale=quick|reduced|full), trials fan out
// across -workers goroutines without changing any number, and -format=json
// or csv emits machine-readable tables for plotting or regression tracking.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"dapes/internal/experiment"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapes-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dapes-bench", flag.ExitOnError)
	scaleName := fs.String("scale", "reduced", "workload scale: quick, reduced, or full")
	only := fs.String("only", "", "comma-separated experiment ids (e.g. 9a,9b,10,tableI); empty = all")
	workers := fs.Int("workers", 1, "concurrent trials per configuration; results are identical at any pool size")
	format := fs.String("format", "text", "output format: text, json, or csv")
	outPath := fs.String("o", "", "write results to this file instead of stdout")
	fs.Parse(args) // ExitOnError: a bad flag prints usage and exits 2

	var scale experiment.Scale
	switch *scaleName {
	case "quick":
		scale = experiment.QuickScale()
	case "reduced":
		scale = experiment.ReducedScale()
	case "full":
		scale = experiment.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	scale.Workers = *workers
	if err := scale.Validate(); err != nil {
		return err
	}

	// Ids are checked before the output is opened (and -o truncated): an
	// unknown one must not read as an experiment that printed nothing. A
	// figure's own id ("10") asks for all its panels.
	var known []string
	for _, fig := range experiment.Figures {
		known = append(known, fig.IDs()...)
	}
	wanted := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.ContainsFunc(known, func(k string) bool { return strings.EqualFold(k, id) }) {
			return fmt.Errorf("unknown experiment id %q in -only (known: %s)", id, strings.Join(known, ", "))
		}
		wanted[strings.ToLower(id)] = true
	}
	want := func(id string) bool { return len(wanted) == 0 || wanted[strings.ToLower(id)] }

	out, f, closeOut, err := experiment.OpenOutput(*outPath, *format)
	if err != nil {
		return err
	}
	defer closeOut()

	// Text and CSV stream each table as its experiment completes, so a
	// failure hours into a full-scale run does not discard finished work;
	// JSON is one array and necessarily buffers until the end.
	var tables []experiment.Table
	emit := func(t experiment.Table) error {
		if f == experiment.FormatJSON {
			tables = append(tables, t)
			return nil
		}
		return experiment.EmitTables(out, f, t)
	}
	for _, fig := range experiment.Figures {
		var panels []int
		for i, p := range fig.Panels {
			if want(fig.ID) || want(p.ID) {
				panels = append(panels, i)
			}
		}
		if len(panels) == 0 {
			continue
		}
		// One sweep, however many of its panels were asked for.
		res, err := fig.Run(scale)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", cmp.Or(fig.ID, fig.Panels[panels[0]].ID), err)
		}
		for _, i := range panels {
			if err := emit(res.Table(i)); err != nil {
				return err
			}
		}
	}
	if f == experiment.FormatJSON {
		return experiment.EmitTables(out, f, tables...)
	}
	return nil
}
