package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fuzzOwned are the flags FuzzSimFlags sets itself or never sets: the three
// output paths, a fault file, and -list.
var fuzzOwned = map[string]bool{"o": true, "cpuprofile": true, "memprofile": true, "faults": true, "list": true}

// FuzzSimFlags runs dapes-sim on arbitrary command lines, arguments split
// at white space: an accepted one runs without panicking, and a refused one
// leaves no -o, -cpuprofile or -memprofile file. The harness names those
// three files itself and skips an input that names one of fuzzOwned. It
// starts every line at one trial of a 10-packet collection with a 20-second
// horizon and skips an input that raises that past 2 trials, 20 packets or
// 2 minutes: the trial count bounds the worker pool, so no input starts
// more than two trial goroutines. The corpus is TestRejectsMisreadInputs'
// rows and a few accepted lines.
func FuzzSimFlags(f *testing.F) {
	for _, tc := range misreadInputs("", nil) {
		f.Add(strings.Join(tc.args, " "))
	}
	for _, line := range []string{"", "-scenario fig8a-carrier", "-scenario urban-grid -peba=false", "-scenario fig7-bithoc -range 20"} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		args := strings.Fields(line)
		if o, err := parseFlags(args); err == nil {
			owned := false
			o.fs.Visit(func(fl *flag.Flag) { owned = owned || fuzzOwned[fl.Name] })
			if owned {
				t.Skip("names a flag the harness owns")
			}
		}
		dir := t.TempDir()
		files := []string{filepath.Join(dir, "out"), filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")}
		args = append([]string{"-o", files[0], "-cpuprofile", files[1], "-memprofile", files[2],
			"-trials", "1", "-files", "2", "-packets", "5", "-horizon", "20s"}, args...)
		// A scale Validate refuses allocates nothing, whatever its size.
		if o, err := parseFlags(args); err == nil && o.scale.Validate() == nil {
			s := o.scale
			if s.Trials > 2 || s.Horizon > 2*time.Minute ||
				s.NumFiles > 0 && s.PacketsPerFile > 0 && (s.NumFiles > 20 || s.PacketsPerFile > 20/s.NumFiles) {
				t.Skip("more than 2 trials, 20 packets or 2 minutes")
			}
		}
		if err := run(args); err == nil {
			return
		}
		for _, p := range files {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("refused %q left %s behind (stat: %v)", line, filepath.Base(p), err)
			}
		}
	})
}
