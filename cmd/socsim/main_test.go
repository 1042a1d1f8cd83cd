package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/soc"
)

// TestEveryPassAcceptsEveryDesign: every analysis pass selects every
// registered design, shipped test and fixture alike, so no pass/design
// pair is refused as unknown (exit 2). It stops at the lookup: running
// mc on every full SoC would cost most of a second per design.
func TestEveryPassAcceptsEveryDesign(t *testing.T) {
	names := []string{"all"}
	for _, tc := range append(soc.Tests(), soc.ExtraTests()...) {
		names = append(names, tc.Name)
	}
	for _, f := range soc.Fixtures() {
		names = append(names, f.Name)
	}
	for _, p := range analysis.Passes {
		for _, name := range names {
			designs, passes, err := plan(name, p.Name)
			if err != nil || len(designs) == 0 || len(passes) != 1 {
				t.Errorf("-test %s -check %s: %d designs, %d passes, %v", name, p.Name, len(designs), len(passes), err)
			}
		}
	}
	if _, _, err := plan("nope", "lint"); err == nil {
		t.Error("unknown design accepted")
	}
	if _, _, err := plan("memcpy", "lint,nope"); err == nil {
		t.Error("unknown pass accepted")
	}
}

// TestCheckJSONMatchesServe: -checkjson writes the same body socd
// serves for the same design and pass, also when several passes share
// one build of the design.
func TestCheckJSONMatchesServe(t *testing.T) {
	for _, checks := range []string{"rateck", "all"} {
		path := filepath.Join(t.TempDir(), "badrate.json")
		if code := runChecks(soc.DefaultConfig(), "tlm", "badrate", checks, path, ""); code != 1 {
			t.Fatalf("runChecks(badrate, %s) = %d, want 1", checks, code)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got []json.RawMessage
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("-checkjson is not a JSON array (%v):\n%s", err, data)
		}
		_, passes, _ := plan("badrate", checks)
		if len(got) != len(passes) {
			t.Fatalf("-check %s wrote %d bodies, want %d", checks, len(got), len(passes))
		}
		for i, p := range passes {
			spec, err := serve.ParseSpec([]byte(`{"kind":"` + p.Name + `","test":"badrate"}`))
			if err != nil {
				t.Fatal(err)
			}
			r := exp.Run([]exp.Job{{Name: "job", Run: func(c *exp.Ctx) (any, error) {
				return serve.Execute(c, spec, nil)
			}}}).Results[0]
			if r.Failed() {
				t.Fatal(r.Err)
			}
			if want := bytes.TrimSpace(r.Value.([]byte)); !bytes.Equal(bytes.TrimSpace(got[i]), want) {
				t.Errorf("-check %s: %s body differs from serve's:\n%s\nvs\n%s", checks, p.Name, got[i], want)
			}
		}
	}
}

// TestMCReportNeedsOneDesign: in check mode -vcd holds one design's
// counterexample, so selecting several designs is refused up front with
// exit 2 and no file written; one design writes its replay.
func TestMCReportNeedsOneDesign(t *testing.T) {
	dir := t.TempDir()
	cfg := soc.DefaultConfig()
	if code := runChecks(cfg, "tlm", "all", "verify", "", filepath.Join(dir, "all.vcd")); code != 2 {
		t.Errorf("runChecks(all, -vcd) = %d, want 2", code)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused run wrote %d files", len(entries))
	}
	one := filepath.Join(dir, "mcdeadlock.vcd")
	if code := runChecks(cfg, "tlm", "mcdeadlock", "verify", "", one); code != 1 {
		t.Fatalf("runChecks(mcdeadlock, verify) = %d, want 1", code)
	}
	if _, err := os.Stat(one); err != nil {
		t.Errorf("single-design counterexample not written: %v", err)
	}
}

// TestSimOutputsNeedOneTest: -statsjson and -vcd each hold one run, so
// the simulate path refuses them with exit 2, running nothing and
// writing no file, unless -test names one test; one test writes its
// snapshot.
func TestSimOutputsNeedOneTest(t *testing.T) {
	dir := t.TempDir()
	cfg := soc.DefaultConfig()
	cfg.Trace = true
	for _, o := range []simOutputs{
		{maxCycles: 1, statsJSON: filepath.Join(dir, "all.json")},
		{maxCycles: 1, vcd: filepath.Join(dir, "all.vcd")},
	} {
		if code := runSims(cfg, "all", o); code != 2 {
			t.Errorf("runSims(all, %+v) = %d, want 2", o, code)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused runs wrote %d files", len(entries))
	}
	if code := runSims(soc.DefaultConfig(), "nope", simOutputs{maxCycles: 1}); code != 2 {
		t.Errorf("runSims(nope) = %d, want 2", code)
	}
	one := filepath.Join(dir, "memcpy.json")
	if code := runSims(soc.DefaultConfig(), "memcpy", simOutputs{maxCycles: 10_000_000, statsJSON: one}); code != 0 {
		t.Fatalf("runSims(memcpy, -statsjson) = %d, want 0", code)
	}
	data, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Metrics []json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(data, &snap); err != nil || len(snap.Metrics) == 0 {
		t.Errorf("memcpy snapshot has %d metrics (%v)", len(snap.Metrics), err)
	}
}

// TestMain runs the command itself instead of the tests when
// SOCSIM_RUN_MAIN is set, so that a test can drive main's flag handling
// in a child process.
func TestMain(m *testing.M) {
	if os.Getenv("SOCSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs socsim with args in a child process and returns its exit
// code and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SOCSIM_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("socsim %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestStallOutOfRangeRefused: -stall takes a probability in [0,1), the
// domain serve's job specs accept. At 1 or above every edge stalls and
// a run spins to its cycle budget; below 0 or NaN no edge would stall.
// Each is refused with exit 2 before anything runs, in serve's words.
// An in-range stall with an unknown test fails on the test instead.
func TestStallOutOfRangeRefused(t *testing.T) {
	for _, p := range []string{"1.5", "1", "-0.2", "NaN", "+Inf"} {
		code, stderr := runMain(t, "-test", "memcpy", "-stall", p)
		v, _ := strconv.ParseFloat(p, 64)
		want := fmt.Sprintf("socsim: stall probability %v out of [0,1)\n", v)
		if code != 2 || stderr != want {
			t.Errorf("-stall %s: exit %d, stderr %q; want exit 2, %q", p, code, stderr, want)
		}
	}
	code, stderr := runMain(t, "-test", "nope", "-stall", "0.999")
	if code != 2 || !strings.Contains(stderr, `unknown test "nope"`) {
		t.Errorf("-test nope -stall 0.999: exit %d, stderr %q; want exit 2 on the test name", code, stderr)
	}
}
