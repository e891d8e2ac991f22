package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"text/tabwriter"
)

// runChild runs one workload in a fresh process of this binary, as the
// driver does, and returns the result line it printed.
func runChild(workload string, seed int64, seconds float64) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("selfcheck: %s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("selfcheck: %s: result line: %w", workload, err)
	}
	return res, nil
}

// selfCheck measures every workload twice on the same seed — set A in list
// order, set B in reverse order — and holds the relative gap of each
// end-to-end metric against its bound. Two runs of one commit that differ by
// more than a bound mean the benchmark could not tell a regression of that
// size from noise.
func selfCheck(sp spec, seed int64, seconds float64, stdout io.Writer) error {
	backwards := slices.Clone(workloads)
	slices.Reverse(backwards)
	sets := [2]map[string]result{{}, {}}
	for set, order := range [2][]workload{workloads, backwards} {
		for _, w := range order {
			res, err := runChild(w.name, seed, seconds)
			if err != nil {
				return err
			}
			sets[set][w.name] = res
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA\tB\tgap\tbound\t")
	over := 0
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			gap := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			if !(gap <= *m.Bound) { // also catches a NaN gap
				verdict = "OVER"
				over++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f\t%s\n", w.name, m.Name, m.Unit, a, b, gap, *m.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d gaps over their bound", over)
	}
	return nil
}
