package experiment

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"dapes/internal/sim"
)

// tinyScale keeps unit tests fast.
func tinyScale() Scale {
	s := ReducedScale()
	s.Trials = 1
	s.NumFiles = 2
	s.PacketsPerFile = 5
	s.Ranges = []float64{80}
	s.Horizon = 20 * time.Minute
	return s
}

func TestRunDAPESTrialCompletes(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	tr, err := RunDAPESTrial(s, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Downloaders != s.Stationary+s.MobileDown {
		t.Fatalf("downloaders = %d", tr.Downloaders)
	}
	if tr.Completed < tr.Downloaders*3/4 {
		t.Fatalf("only %d/%d downloaders completed", tr.Completed, tr.Downloaders)
	}
	if tr.Transmissions == 0 {
		t.Fatal("no transmissions recorded")
	}
	if tr.AvgDownloadTime <= 0 || tr.AvgDownloadTime > s.Horizon {
		t.Fatalf("avg download time = %v", tr.AvgDownloadTime)
	}
}

func TestRunDAPESDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	a, err := RunDAPESTrial(s, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunDAPESTrial(s, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgDownloadTime != b.AvgDownloadTime || a.Transmissions != b.Transmissions {
		t.Fatalf("same seed diverged: %v/%d vs %v/%d",
			a.AvgDownloadTime, a.Transmissions, b.AvgDownloadTime, b.Transmissions)
	}
}

func TestRunBithocTrialCompletes(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	tr, err := RunBithocTrial(s, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completed < tr.Downloaders/2 {
		t.Fatalf("only %d/%d bithoc downloaders completed", tr.Completed, tr.Downloaders)
	}
}

func TestRunEktaTrialCompletes(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	tr, err := RunEktaTrial(s, 80, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completed < tr.Downloaders/2 {
		t.Fatalf("only %d/%d ekta downloaders completed", tr.Completed, tr.Downloaders)
	}
}

func TestScenariosProduceTableI(t *testing.T) {
	t.Parallel()
	s := tinyScale()
	s.NumFiles = 1
	rows, err := TableIRows(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table I rows = %d", len(rows))
	}
	for _, row := range rows {
		if !row.Completed {
			t.Fatalf("scenario %s did not complete: %+v", row.Name, row)
		}
	}
	// The paper's relative finding: the mobile-swarm scenario (3) finishes
	// fastest with the fewest transmissions but the highest memory.
	if t1, t3 := rows[0].DownloadTime, rows[2].DownloadTime; t3 >= t1 {
		t.Errorf("scenario 3 (%v) not faster than scenario 1 (%v)", t3, t1)
	}
}

func TestPercentile90(t *testing.T) {
	t.Parallel()
	if got := percentile90(nil); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Nearest rank: the smallest of 1..n with at least 90% of the values at
	// or below it, so the ninth of the paper's ten trials, not their maximum.
	for n, want := range map[int]float64{1: 1, 3: 3, 9: 9, 10: 9, 11: 10, 20: 18} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((i*7)%n + 1) // 1..n out of order (7 is coprime to every n here)
		}
		if got := percentile90(vals); got != want {
			t.Errorf("p90 of 1..%d = %v, want %v", n, got, want)
		}
	}
}

func TestTableString(t *testing.T) {
	t.Parallel()
	tbl := Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tbl.String()
	if out == "" || len(out) < 20 {
		t.Fatalf("table render too short: %q", out)
	}
}

func TestScalePresets(t *testing.T) {
	t.Parallel()
	for _, s := range []Scale{ReducedScale(), QuickScale(), FullScale()} {
		if s.TotalPackets() <= 0 || s.Trials <= 0 || len(s.Ranges) == 0 {
			t.Fatalf("invalid preset: %+v", s)
		}
	}
	if FullScale().TotalPackets() != 10240 {
		t.Fatalf("full scale packets = %d, want 10240 (10 x 1MB / 1KB)", FullScale().TotalPackets())
	}
}

// TestContentFillIsMathRandRead: the collection's content is what
// math/rand's Read over the same stream wrote, across buffers of every
// length around a draw's seven bytes, leftover bytes carried between them.
func TestContentFillIsMathRandRead(t *testing.T) {
	t.Parallel()
	ref := sim.NewStream(7, 0, sim.PurposeContent)
	rng := rand.New(&ref)
	fill := contentFill{stream: sim.NewStream(7, 0, sim.PurposeContent)}
	for n := 0; n < 40; n++ {
		want, got := make([]byte, n), make([]byte, n)
		rng.Read(want)
		fill.read(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("buffer of %d bytes: got %x, want %x", n, got, want)
		}
	}
}
