package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// This file is the machine-readable results emitter shared by cmd/dapes-sim
// and cmd/dapes-bench: every Table and RunResult can be rendered as text,
// JSON, or CSV so downstream tooling (plotting, regression tracking) never
// scrapes terminal output.

// Format selects an output encoding.
type Format string

const (
	FormatText Format = "text"
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
)

// ParseFormat validates a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case FormatText, FormatJSON, FormatCSV:
		return Format(s), nil
	}
	return "", fmt.Errorf("unknown format %q (want text, json, or csv)", s)
}

// OpenOutput is the CLIs' shared -format/-o plumbing: it validates the
// format BEFORE touching the output path (so a typo'd -format can never
// truncate an existing results file), then opens path for writing, or
// stdout when path is empty. The returned close func is a no-op for stdout.
func OpenOutput(path, format string) (io.Writer, Format, func() error, error) {
	f, err := ParseFormat(format)
	if err != nil {
		return nil, "", nil, err
	}
	if path == "" {
		return os.Stdout, f, func() error { return nil }, nil
	}
	file, err := os.Create(path)
	if err != nil {
		return nil, "", nil, err
	}
	return file, f, file.Close, nil
}

// trialJSON is the stable wire form of a TrialResult; durations are seconds.
type trialJSON struct {
	Trial           int     `json:"trial"`
	AvgDownloadSec  float64 `json:"avg_download_sec"`
	Transmissions   uint64  `json:"transmissions"`
	Completed       int     `json:"completed"`
	Downloaders     int     `json:"downloaders"`
	ForwardAccuracy float64 `json:"forward_accuracy,omitempty"`
	MemoryBytes     int     `json:"memory_bytes,omitempty"`
	// Chaos statistics (fault-plan runs only; omitted otherwise, so
	// fault-free output is unchanged).
	Crashed     int     `json:"crashed,omitempty"`
	RecoverySec float64 `json:"recovery_sec,omitempty"`
}

type runJSON struct {
	Scenario        string      `json:"scenario,omitempty"`
	RangeMeters     float64     `json:"range_m"`
	Seed            int64       `json:"seed"`
	Workers         int         `json:"workers"`
	DownloadTime90  float64     `json:"download_time_p90_sec"`
	Transmissions90 float64     `json:"transmissions_p90"`
	Trials          []trialJSON `json:"trials"`
}

func runToJSON(r RunResult) runJSON {
	out := runJSON{
		Scenario:        r.Scenario,
		RangeMeters:     r.Range,
		Seed:            r.Seed,
		Workers:         r.Workers,
		DownloadTime90:  r.DownloadTime90.Seconds(),
		Transmissions90: r.Transmissions90,
		Trials:          make([]trialJSON, len(r.Trials)),
	}
	for i, tr := range r.Trials {
		out.Trials[i] = trialJSON{
			Trial:           i,
			AvgDownloadSec:  tr.AvgDownloadTime.Seconds(),
			Transmissions:   tr.Transmissions,
			Completed:       tr.Completed,
			Downloaders:     tr.Downloaders,
			ForwardAccuracy: tr.ForwardAccuracy,
			MemoryBytes:     tr.MemoryBytes,
			Crashed:         tr.Crashed,
			RecoverySec:     tr.Recovery.Seconds(),
		}
	}
	return out
}

// runCSVHeader is the column layout EmitRun writes in CSV mode, one row per
// trial. Columns are fixed, so the chaos statistics read 0 on fault-free
// runs (JSON and text omit them there).
var runCSVHeader = []string{
	"scenario", "range_m", "seed", "trial", "avg_download_sec",
	"transmissions", "completed", "downloaders", "forward_accuracy", "memory_bytes",
	"crashed", "recovery_sec",
}

// EmitRun writes one scenario execution in the requested format.
func EmitRun(w io.Writer, f Format, r RunResult) error {
	switch f {
	case FormatJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(runToJSON(r))
	case FormatCSV:
		cw := csv.NewWriter(w)
		if err := cw.Write(runCSVHeader); err != nil {
			return err
		}
		for i, tr := range r.Trials {
			rec := []string{
				r.Scenario,
				fmt.Sprintf("%g", r.Range),
				fmt.Sprintf("%d", r.Seed),
				fmt.Sprintf("%d", i),
				fmt.Sprintf("%.3f", tr.AvgDownloadTime.Seconds()),
				fmt.Sprintf("%d", tr.Transmissions),
				fmt.Sprintf("%d", tr.Completed),
				fmt.Sprintf("%d", tr.Downloaders),
				fmt.Sprintf("%.4f", tr.ForwardAccuracy),
				fmt.Sprintf("%d", tr.MemoryBytes),
				fmt.Sprintf("%d", tr.Crashed),
				fmt.Sprintf("%.3f", tr.Recovery.Seconds()),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	default:
		// Write errors propagate (a full disk or closed pipe must not look
		// like a successful emit); the first failure wins.
		if _, err := fmt.Fprintf(w, "%s: range=%gm seed=%d trials=%d workers=%d\n",
			r.Scenario, r.Range, r.Seed, len(r.Trials), r.Workers); err != nil {
			return err
		}
		for i, tr := range r.Trials {
			if _, err := fmt.Fprintf(w, "trial %d: avg-download=%v transmissions=%d completed=%d/%d",
				i, tr.AvgDownloadTime.Round(100*time.Millisecond), tr.Transmissions,
				tr.Completed, tr.Downloaders); err != nil {
				return err
			}
			if tr.ForwardAccuracy > 0 {
				if _, err := fmt.Fprintf(w, " forward-accuracy=%.0f%%", 100*tr.ForwardAccuracy); err != nil {
					return err
				}
			}
			if tr.Crashed > 0 {
				if _, err := fmt.Fprintf(w, " crashed=%d recovery=%v",
					tr.Crashed, tr.Recovery.Round(100*time.Millisecond)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "p90: download=%s s transmissions=%s\n",
			fmtSeconds(r.DownloadTime90), fmtCount(r.Transmissions90))
		return err
	}
}

// tableJSON is the stable wire form of a regenerated figure/table.
type tableJSON struct {
	Title  string     `json:"title"`
	Note   string     `json:"note,omitempty"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// EmitTables writes regenerated figures in the requested format. JSON emits
// one array of table objects; CSV emits each table as a commented title line
// followed by header and rows; text matches Table.String.
func EmitTables(w io.Writer, f Format, tables ...Table) error {
	switch f {
	case FormatJSON:
		out := make([]tableJSON, len(tables))
		for i, t := range tables {
			out[i] = tableJSON{Title: t.Title, Note: t.Note, Header: t.Header, Rows: t.Rows}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	case FormatCSV:
		for _, t := range tables {
			// The title goes out as a raw comment line, not a CSV record:
			// csv.Writer would quote titles containing commas (breaking
			// comment='#' skipping) and lock strict readers to one field.
			if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
				return err
			}
			cw := csv.NewWriter(w)
			if err := cw.Write(t.Header); err != nil {
				return err
			}
			for _, row := range t.Rows {
				if err := cw.Write(row); err != nil {
					return err
				}
			}
			cw.Flush()
			if err := cw.Error(); err != nil {
				return err
			}
		}
		return nil
	default:
		for _, t := range tables {
			if _, err := fmt.Fprintln(w, t); err != nil {
				return err
			}
		}
		return nil
	}
}
