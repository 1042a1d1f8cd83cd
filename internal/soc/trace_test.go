package soc

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// TestTracedSoCRunWritesScopedVCD runs the memcpy system test with
// tracing armed and checks the dumped waveform end to end: parseable
// header, module scopes nested by partition (soc → pe[i]/noc/gml/…),
// balanced scoping, and per-channel valid/ready/occ signals.
func TestTracedSoCRunWritesScopedVCD(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	s, verify := buildMemcpy(cfg)
	if s.Tracer() == nil {
		t.Fatal("Config.Trace did not arm the simulator")
	}
	if _, err := s.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if err := verify(s); err != nil {
		t.Fatal(err)
	}
	if s.Tracer().Len() == 0 {
		t.Fatal("armed SoC run recorded no events")
	}
	if s.Tracer().Dropped() != 0 {
		t.Fatalf("recorder dropped %d events", s.Tracer().Dropped())
	}

	var buf bytes.Buffer
	samples, changes, err := s.Tracer().WriteVCD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 || changes == 0 {
		t.Fatalf("empty dump: %d samples, %d changes", samples, changes)
	}

	// Structural parse: scope stack must never underflow and must end
	// balanced; every $var lands inside at least one scope.
	depth, maxDepth, vars := 0, 0, 0
	sawSoC, sawPE := false, false
	sc := bufio.NewScanner(&buf)
	inHeader := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "$scope module "):
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
			name := strings.Fields(line)[2]
			if name == "soc" {
				sawSoC = true
			}
			if strings.HasPrefix(name, "pe[") {
				sawPE = true
			}
		case strings.HasPrefix(line, "$upscope"):
			depth--
			if depth < 0 {
				t.Fatal("$upscope underflow")
			}
		case strings.HasPrefix(line, "$var "):
			vars++
			if depth == 0 {
				t.Fatalf("var outside any scope: %s", line)
			}
		case strings.HasPrefix(line, "$enddefinitions"):
			if depth != 0 {
				t.Fatalf("unbalanced scopes at end of header: depth %d", depth)
			}
			inHeader = false
		}
	}
	if inHeader {
		t.Fatal("no $enddefinitions")
	}
	if !sawSoC || !sawPE {
		t.Fatalf("partition scopes missing: soc=%v pe=%v", sawSoC, sawPE)
	}
	if maxDepth < 3 {
		t.Fatalf("scope nesting too shallow: %d", maxDepth)
	}
	if vars < 100 {
		t.Fatalf("only %d vars for a full SoC", vars)
	}
}

// TestTracedSoCRunMatchesUntraced is the system-level zero-cost check:
// arming the whole chip's tracing must not move a single cycle or
// counter. Under stall injection it is also the check that a disarmed
// stalled channel's sleep changes nothing: an armed channel commits and
// rolls its stalls on every edge, since its monitor reads them, while a
// disarmed one sleeps whenever it is empty and no producer waits.
func TestTracedSoCRunMatchesUntraced(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"tlm", func(*Config) {}},
		{"stall", func(c *Config) { c.StallP, c.StallSeed = 0.1, 1 }},
		{"gals-stall", func(c *Config) { c.GALS, c.StallP, c.StallSeed = true, 0.1, 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(trace bool) (uint64, string) {
				cfg := DefaultConfig()
				c.edit(&cfg)
				cfg.Trace = trace
				s, verify := Tests()[0].Build(cfg)
				cycles, err := s.Run(maxCycles)
				if err != nil {
					t.Fatal(err)
				}
				if s.RV.ExitCode != 0 {
					t.Fatalf("firmware exit code %d", s.RV.ExitCode)
				}
				if err := verify(s); err != nil {
					t.Fatal(err)
				}
				return cycles, metricsHash(t, s)
			}
			base, baseHash := run(false)
			traced, tracedHash := run(true)
			if base != traced {
				t.Fatalf("cycle count diverged: untraced %d vs traced %d", base, traced)
			}
			if baseHash != tracedHash {
				t.Fatalf("metrics hash diverged: untraced %s vs traced %s", baseHash, tracedHash)
			}
		})
	}
}

// TestTracedSoCAnalyzeCleanRun checks the analysis pass on a healthy
// chip: channels report activity and a passing run has no deadlock
// suspects.
func TestTracedSoCAnalyzeCleanRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	s, verify := buildMemcpy(cfg)
	if _, err := s.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if err := verify(s); err != nil {
		t.Fatal(err)
	}
	rep := s.Tracer().Analyze(1000)
	if len(rep.Channels) < 100 {
		t.Fatalf("only %d channels analyzed", len(rep.Channels))
	}
	if len(rep.Suspects) != 0 {
		t.Fatalf("clean run flagged suspects: %v", rep.Suspects)
	}
	var active int
	for _, c := range rep.Channels {
		if c.Pushes > 0 {
			active++
		}
	}
	if active == 0 {
		t.Fatal("no channel recorded any transfer")
	}
}
