package experiment

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func sampleRun() RunResult {
	return RunResult{
		Scenario: "fig7-dapes",
		Range:    60,
		Seed:     1,
		Workers:  2,
		Trials: []TrialResult{
			{AvgDownloadTime: 90 * time.Second, Transmissions: 1200, Completed: 24, Downloaders: 24, ForwardAccuracy: 0.8},
			{AvgDownloadTime: 110 * time.Second, Transmissions: 1500, Completed: 23, Downloaders: 24},
		},
		DownloadTime90:  110 * time.Second,
		Transmissions90: 1500,
	}
}

func TestEmitRunJSONRoundTrips(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := EmitRun(&buf, FormatJSON, sampleRun()); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Scenario string  `json:"scenario"`
		Range    float64 `json:"range_m"`
		P90      float64 `json:"download_time_p90_sec"`
		Trials   []struct {
			Trial         int     `json:"trial"`
			Download      float64 `json:"avg_download_sec"`
			Transmissions uint64  `json:"transmissions"`
		} `json:"trials"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if got.Scenario != "fig7-dapes" || got.Range != 60 || got.P90 != 110 {
		t.Fatalf("fields lost: %+v", got)
	}
	if len(got.Trials) != 2 || got.Trials[1].Trial != 1 || got.Trials[0].Download != 90 {
		t.Fatalf("trials lost: %+v", got.Trials)
	}
}

func TestEmitRunCSVShape(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := EmitRun(&buf, FormatCSV, sampleRun()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + 2 trials
		t.Fatalf("rows = %d, want 3", len(recs))
	}
	if recs[0][0] != "scenario" || len(recs[1]) != len(runCSVHeader) {
		t.Fatalf("bad header/row shape: %v", recs)
	}
	if recs[2][3] != "1" {
		t.Fatalf("trial index column = %q, want 1", recs[2][3])
	}
}

func TestEmitRunTextIncludesAggregate(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := EmitRun(&buf, FormatText, sampleRun()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig7-dapes", "trial 0", "trial 1", "p90", "forward-accuracy=80%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestEmitTablesFormats(t *testing.T) {
	t.Parallel()
	tbl := Table{
		Title:  "demo",
		Header: []string{"range(m)", "DAPES"},
		Rows:   [][]string{{"20", "1.5"}, {"60", "0.9"}},
	}
	var jbuf bytes.Buffer
	if err := EmitTables(&jbuf, FormatJSON, tbl, tbl); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		Title string     `json:"title"`
		Rows  [][]string `json:"rows"`
	}
	if err := json.Unmarshal(jbuf.Bytes(), &tables); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(tables) != 2 || tables[0].Title != "demo" || len(tables[1].Rows) != 2 {
		t.Fatalf("tables lost: %+v", tables)
	}

	var cbuf bytes.Buffer
	if err := EmitTables(&cbuf, FormatCSV, tbl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cbuf.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "# demo") {
		t.Fatalf("csv shape: %q", cbuf.String())
	}

	var tbuf bytes.Buffer
	if err := EmitTables(&tbuf, FormatText, tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbuf.String(), "== demo ==") {
		t.Fatalf("text table missing title: %q", tbuf.String())
	}
}

// failWriter errors on every write after the first n bytes succeed,
// exercising the emitters' error propagation mid-document.
type failWriter struct {
	allow int // bytes accepted before failing
	wrote int
}

func (fw *failWriter) Write(p []byte) (int, error) {
	if fw.wrote+len(p) > fw.allow {
		n := fw.allow - fw.wrote
		if n < 0 {
			n = 0
		}
		fw.wrote += n
		return n, errors.New("sink full")
	}
	fw.wrote += len(p)
	return len(p), nil
}

func TestEmitRunPropagatesWriteErrors(t *testing.T) {
	t.Parallel()
	r := sampleRun()
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		// Fail immediately and partway through: both must surface the error.
		for _, allow := range []int{0, 40} {
			if err := EmitRun(&failWriter{allow: allow}, f, r); err == nil {
				t.Errorf("EmitRun(%s, allow=%d) swallowed the write error", f, allow)
			}
		}
	}
}

func TestEmitTablesPropagatesWriteErrors(t *testing.T) {
	t.Parallel()
	tbl := Table{Title: "demo", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	for _, f := range []Format{FormatText, FormatJSON, FormatCSV} {
		if err := EmitTables(&failWriter{allow: 0}, f, tbl); err == nil {
			t.Errorf("EmitTables(%s) swallowed the write error", f)
		}
	}
}

func TestOpenOutputRejectsFormatBeforeTouchingPath(t *testing.T) {
	t.Parallel()
	// A typo'd -format must fail before the output file is created or
	// truncated — that ordering is the documented contract.
	path := filepath.Join(t.TempDir(), "results.json")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenOutput(path, "xml"); err == nil {
		t.Fatal("OpenOutput accepted format xml")
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "precious" {
		t.Fatalf("existing file was touched despite bad format: %q, %v", got, err)
	}
}

func TestOpenOutputErrorsOnUnwritablePath(t *testing.T) {
	t.Parallel()
	if _, _, _, err := OpenOutput(filepath.Join(t.TempDir(), "no", "such", "dir", "x.json"), "json"); err == nil {
		t.Fatal("OpenOutput created a file under a missing directory")
	}
}

func TestOpenOutputStdoutCloseIsNoOp(t *testing.T) {
	t.Parallel()
	w, f, closeFn, err := OpenOutput("", "text")
	if err != nil || w != os.Stdout || f != FormatText {
		t.Fatalf("OpenOutput(\"\") = %v, %v, err %v", w, f, err)
	}
	if err := closeFn(); err != nil {
		t.Fatalf("stdout close func errored: %v", err)
	}
}

func TestParseFormat(t *testing.T) {
	t.Parallel()
	for _, ok := range []string{"text", "json", "csv"} {
		if _, err := ParseFormat(ok); err != nil {
			t.Errorf("ParseFormat(%q) = %v", ok, err)
		}
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("ParseFormat accepted xml")
	}
}

// TestEmitRunFormatsAgreeOnChaosRun emits one urban-grid-chaos execution in
// all three formats and reads every per-trial field back out of each: the
// chaos statistics must be present everywhere, and a column that exists in
// one machine-readable format must exist in the other.
func TestEmitRunFormatsAgreeOnChaosRun(t *testing.T) {
	t.Parallel()
	s := goldenScale()
	s.Trials = 2
	s.Horizon = 6 * time.Minute
	run, err := Runner{}.RunScenario("urban-grid-chaos", s, 60)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(f Format) *bytes.Buffer {
		var buf bytes.Buffer
		if err := EmitRun(&buf, f, run); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		return &buf
	}

	var doc struct {
		Scenario string                   `json:"scenario"`
		Range    float64                  `json:"range_m"`
		Seed     int64                    `json:"seed"`
		Trials   []map[string]json.Number `json:"trials"`
	}
	dec := json.NewDecoder(emit(FormatJSON))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(emit(FormatCSV)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	textTrial := regexp.MustCompile(`^trial (\d+): avg-download=(\S+) transmissions=(\d+) completed=(\d+)/(\d+) forward-accuracy=(\d+)% crashed=(\d+) recovery=(\S+)$`)
	lines := strings.Split(strings.TrimSpace(emit(FormatText).String()), "\n")
	if len(doc.Trials) != len(run.Trials) || len(recs) != len(run.Trials)+1 || len(lines) != len(run.Trials)+2 {
		t.Fatalf("trial rows: json %d, csv %d, text %d; want %d", len(doc.Trials), len(recs)-1, len(lines)-2, len(run.Trials))
	}

	for i, tr := range run.Trials {
		if tr.Crashed == 0 || tr.Recovery == 0 || tr.ForwardAccuracy == 0 || tr.MemoryBytes == 0 {
			t.Fatalf("trial %d leaves a field at its zero value, so omission would go unnoticed: %+v", i, tr)
		}
		// CSV against the result, column by column.
		want := map[string]string{
			"scenario":         "urban-grid-chaos",
			"range_m":          "60",
			"seed":             fmt.Sprint(s.BaseSeed),
			"trial":            fmt.Sprint(i),
			"avg_download_sec": fmt.Sprintf("%.3f", tr.AvgDownloadTime.Seconds()),
			"transmissions":    fmt.Sprint(tr.Transmissions),
			"completed":        fmt.Sprint(tr.Completed),
			"downloaders":      fmt.Sprint(tr.Downloaders),
			"forward_accuracy": fmt.Sprintf("%.4f", tr.ForwardAccuracy),
			"memory_bytes":     fmt.Sprint(tr.MemoryBytes),
			"crashed":          fmt.Sprint(tr.Crashed),
			"recovery_sec":     fmt.Sprintf("%.3f", tr.Recovery.Seconds()),
		}
		if len(recs[0]) != len(want) || len(recs[i+1]) != len(want) {
			t.Fatalf("csv has %d header / %d row columns, want %d", len(recs[0]), len(recs[i+1]), len(want))
		}
		// JSON carries the same per-trial fields as CSV, at full precision
		// (the first three CSV columns repeat the run header on every row).
		js := doc.Trials[i]
		if len(js) != len(recs[0])-3 {
			t.Errorf("json trial %d has %d fields, csv has %d per-trial columns", i, len(js), len(recs[0])-3)
		}
		for col, name := range recs[0] {
			got := recs[i+1][col]
			if got != want[name] {
				t.Errorf("csv trial %d %s = %q, want %q", i, name, got, want[name])
			}
			if col < 3 {
				continue
			}
			jf, err := js[name].Float64()
			cf, _ := strconv.ParseFloat(got, 64)
			if err != nil || math.Abs(jf-cf) > 0.00051 {
				t.Errorf("trial %d %s: json %q (%v) vs csv %q", i, name, js[name], err, got)
			}
		}
		// Text prints everything but memory, rounded for reading.
		m := textTrial.FindStringSubmatch(lines[i+1])
		if m == nil {
			t.Fatalf("text trial line %q does not carry every field", lines[i+1])
		}
		wantText := []string{
			fmt.Sprint(i), tr.AvgDownloadTime.Round(100 * time.Millisecond).String(),
			fmt.Sprint(tr.Transmissions), fmt.Sprint(tr.Completed), fmt.Sprint(tr.Downloaders),
			fmt.Sprintf("%.0f", 100*tr.ForwardAccuracy), fmt.Sprint(tr.Crashed),
			tr.Recovery.Round(100 * time.Millisecond).String(),
		}
		for j, w := range wantText {
			if m[j+1] != w {
				t.Errorf("text trial %d field %d = %q, want %q", i, j, m[j+1], w)
			}
		}
	}
	if doc.Scenario != "urban-grid-chaos" || doc.Range != 60 || doc.Seed != s.BaseSeed {
		t.Errorf("json run header: %q range %v seed %d", doc.Scenario, doc.Range, doc.Seed)
	}
}
