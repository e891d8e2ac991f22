// Command dapes-lint is the repo's static-analysis multichecker: five
// analyzers that machine-check the contracts every golden-trace gate
// depends on (docs/CONTRACTS.md):
//
//	simclock      — no wall clock / global math/rand on simulation paths
//	maporder      — no map-iteration order reaching scheduling, wire,
//	                stats, sends, or unsorted output slices
//	wireimmut     — no writes through shared wire-frame views, no field
//	                mutation of encoded/decoded packets without
//	                InvalidateWire
//	handlehygiene — no stored *sim.Event; hold sim.Handle / sim.Timer
//	namekey       — no map keyed by ndn.Name.String() built at the lookup
//
// Usage:
//
//	dapes-lint [packages]     # defaults to ./...
//
// A finding can be suppressed with an explicit, justified escape hatch on
// the offending line or the line above it:
//
//	//lint:ignore <analyzer> <reason>
//
// Exit status: 0 clean, 1 unsuppressed diagnostics, 2 load/usage errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"dapes/internal/lint"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dapes-lint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.RunDir("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dapes-lint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "dapes-lint: %d unsuppressed diagnostic(s); fix or //lint:ignore <analyzer> <reason> (see docs/CONTRACTS.md)\n", len(diags))
		os.Exit(1)
	}
}
