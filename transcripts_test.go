package repro

// Pinned transcripts: every example, benchfig's full report and flowrun
// over every bundled design run as built binaries, and the FNV-64a hash
// of each run's stdout (stderr too, when it is not empty) and of every
// file it writes is pinned in testdata/transcripts.golden. A change that
// moves one simulated cycle, one gate or one waveform edge anywhere in
// those outputs fails here. Regenerate, after reviewing why the bytes
// moved, with
//
//	go test -run TestTranscriptsPinned -update .

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/transcripts.golden")

// wallClock masks the only run-to-run variable fields of the pinned
// outputs, all wall-clock times; nothing else may be listed here.
var wallClock = []struct {
	re   *regexp.Regexp
	repl string
}{
	// examples/accelerator: "... instructions retired, wall 10ms"
	{regexp.MustCompile(`(?m)(instructions retired, wall )\S+$`), "${1}<wall>"},
	// benchfig Figure 6: the TLM wall, RTL wall and speedup columns.
	{regexp.MustCompile(`(?m)^(\w+ +\d+ +\d+ +[\d.]+%) +\S+ +\S+ +[\d.]+x$`), "${1} <wall>"},
	// flowrun's report line: "(50 vectors verified, 6ms)"
	{regexp.MustCompile(`(vectors verified, )[^)]+\)`), "${1}<wall>)"},
}

// proveable are the bundled flowrun designs with at most 16 input bits,
// the only ones -prove can enumerate.
var proveable = map[string]bool{"decoder32": true}

type invocation struct {
	name string // pin prefix
	prog string // binary name
	args []string
}

func TestTranscriptsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every command and example")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	var invs []invocation
	examples, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range examples {
		invs = append(invs, invocation{"examples/" + e.Name(), e.Name(), nil})
	}
	invs = append(invs, invocation{"benchfig -all -seed 7", "benchfig", []string{"-all", "-seed", "7"}})
	list, err := exec.Command(filepath.Join(bin, "flowrun"), "-list").Output()
	if err != nil {
		t.Fatalf("flowrun -list: %v", err)
	}
	for _, d := range strings.Fields(string(list)) {
		args := []string{"-design", d, "-ii", "-tb", d + ".tb.v", "-verilog", d + ".v", "-vcd", d + ".vcd"}
		if proveable[d] {
			args = append(args, "-prove")
		}
		invs = append(invs, invocation{"flowrun " + d, "flowrun", args})
	}

	pins := make([]string, len(invs))
	t.Run("run", func(t *testing.T) {
		for i, inv := range invs {
			t.Run(strings.ReplaceAll(inv.name, " ", "_"), func(t *testing.T) {
				t.Parallel()
				pins[i] = runPinned(t, bin, inv)
			})
		}
	})
	if t.Failed() {
		return
	}
	got := strings.Join(pins, "")
	golden := filepath.Join("testdata", "transcripts.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		wantLines := strings.Split(string(want), "\n")
		gotLines := strings.Split(got, "\n")
		for _, l := range gotLines {
			if !slices.Contains(wantLines, l) {
				t.Errorf("+ %s", l)
			}
		}
		for _, l := range wantLines {
			if !slices.Contains(gotLines, l) {
				t.Errorf("- %s", l)
			}
		}
		t.Errorf("transcripts drifted from %s (+ got, - want; regenerate with -update)", golden)
	}
}

// runPinned runs one invocation in a fresh directory and returns its pin
// lines: the masked stdout's hash, stderr's if any, then one line per
// file the run left behind, in name order.
func runPinned(t *testing.T, bin string, inv invocation) string {
	dir := t.TempDir()
	cmd := exec.Command(filepath.Join(bin, inv.prog), inv.args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v\n%s", inv.name, err, stderr.Bytes())
	}
	out := stdout.Bytes()
	for _, m := range wallClock {
		out = m.re.ReplaceAll(out, []byte(m.repl))
	}
	var b strings.Builder
	pin := func(what string, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		fmt.Fprintf(&b, "%s: %s %016x\n", inv.name, what, h.Sum64())
	}
	pin("stdout", out)
	if stderr.Len() > 0 {
		pin("stderr", stderr.Bytes())
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		pin(f.Name(), data)
	}
	return b.String()
}
