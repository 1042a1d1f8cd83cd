// Command socsim runs the prototype SoC's system-level tests under the
// selected simulation model and clocking style, reporting elapsed cycles,
// wall time, and per-node traffic statistics — the workflow behind the
// paper's Figure 6 and §4 case study.
//
//	socsim -test conv1d -mode rtl
//	socsim -test all -gals
//	socsim -test vecadd -stall 0.2 -seed 3
//	socsim -test memcpy -vcd out.vcd      # per-channel waveforms, GTKWave-ready
//	socsim -test memcpy -trace            # backpressure/deadlock report
//	socsim -test all -check all           # lint, rateck and verify; no simulation
//	socsim -test mcdeadlock -check verify -vcd cx.vcd
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/connections"
	"repro/internal/mc"
	"repro/internal/soc"
	"repro/internal/trace"
)

func main() {
	testName := flag.String("test", "all", "SoC test: memcpy|vecadd|dot|conv1d|kmeans|maxpool|matvec|f16dot|all; with -check, also any analysis fixture")
	mode := flag.String("mode", "tlm", "channel model: tlm (sim-accurate) | signal | rtl")
	galsOn := flag.Bool("gals", false, "fine-grained GALS: one clock generator per partition")
	shadow := flag.Bool("shadow", false, "gate-level shadow cosimulation of PE datapaths (rtl mode)")
	stall := flag.Float64("stall", 0, "stall-injection probability on every channel, in [0,1)")
	seed := flag.Int64("seed", 1, "stall-injection seed")
	statsF := flag.Bool("stats", false, "dump the full per-component metrics tree")
	statsJSON := flag.String("statsjson", "", "write the metrics snapshot as JSON to this file; needs -test to name one test")
	powerF := flag.Bool("power", false, "print the architectural power breakdown")
	vcd := flag.String("vcd", "", "write a VCD waveform of every traced channel (valid/ready/occ, grouped by component scope) to this file; needs -test to name one test; with -check, the replay of verify's first counterexample")
	traceF := flag.Bool("trace", false, "arm channel tracing and print the per-channel backpressure/deadlock report")
	horizon := flag.Uint64("horizon", 1000, "deadlock bound for -trace, in cycles of each channel's clock")
	maxCycles := flag.Uint64("maxcycles", 10_000_000, "cycle budget")
	check := flag.String("check", "", "run analysis passes instead of simulating: lint,rateck,verify or all")
	checkJSON := flag.String("checkjson", "", "write the -check result bodies as a JSON array to this file")
	flag.Parse()

	cfg := soc.DefaultConfig()
	var ok bool
	if cfg.Mode, ok = connections.ParseMode(*mode); !ok {
		fmt.Fprintf(os.Stderr, "socsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	// The domain serve's job specs accept; NaN fails both comparisons.
	if !(*stall >= 0 && *stall < 1) {
		fmt.Fprintf(os.Stderr, "socsim: stall probability %v out of [0,1)\n", *stall)
		os.Exit(2)
	}
	cfg.GALS = *galsOn
	cfg.ShadowNetlists = *shadow
	cfg.StallP = *stall
	cfg.StallSeed = *seed
	cfg.Trace = *vcd != "" || *traceF

	if *checkJSON != "" && *check == "" {
		fmt.Fprintln(os.Stderr, "socsim: -checkjson needs -check")
		os.Exit(2)
	}
	if *check != "" {
		os.Exit(runChecks(cfg, *mode, *testName, *check, *checkJSON, *vcd))
	}

	os.Exit(runSims(cfg, *testName, simOutputs{
		maxCycles: *maxCycles,
		stats:     *statsF,
		statsJSON: *statsJSON,
		power:     *powerF,
		vcd:       *vcd,
		trace:     *traceF,
		horizon:   *horizon,
	}))
}

// simOutputs are what the simulate path reports besides each test's
// status line.
type simOutputs struct {
	maxCycles      uint64
	stats, power   bool
	statsJSON, vcd string // files that hold one run's snapshot or waveform
	trace          bool
	horizon        uint64
}

// runSims simulates each selected test under cfg and returns the exit
// code: 1 when a run errs or a file cannot be written, and 2 for an
// unknown test or for -statsjson or -vcd with more than one test
// selected, since each file holds one run. A refused request runs
// nothing and writes no file.
func runSims(cfg soc.Config, testName string, o simOutputs) int {
	var tests []soc.TestCase
	for _, tc := range append(soc.Tests(), soc.ExtraTests()...) {
		if testName == "all" || tc.Name == testName {
			tests = append(tests, tc)
		}
	}
	if len(tests) == 0 {
		fmt.Fprintf(os.Stderr, "socsim: unknown test %q\n", testName)
		return 2
	}
	if len(tests) > 1 && (o.statsJSON != "" || o.vcd != "") {
		fmt.Fprintf(os.Stderr, "socsim: -statsjson and -vcd hold one run; select one test with -test (%q selects %d)\n", testName, len(tests))
		return 2
	}
	for _, tc := range tests {
		s, verify := tc.Build(cfg)
		start := time.Now()
		cycles, err := s.Run(o.maxCycles)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "socsim: %s: %v\n", tc.Name, err)
			return 1
		}
		status := "PASS"
		if err := verify(s); err != nil {
			status = fmt.Sprintf("FAIL (%v)", err)
		}
		fmt.Printf("%-8s %s  %8d cycles  %10s  %d instret", tc.Name, status, cycles,
			wall.Round(time.Millisecond), s.RV.CPU.Instret)
		if cfg.GALS {
			fmt.Printf("  %d clock pauses", s.Pauses())
		}
		if o.vcd != "" {
			msg, err := writeVCD(o.vcd, s.Tracer())
			if err != nil {
				fmt.Fprintln(os.Stderr, "socsim:", err)
				return 1
			}
			fmt.Print("  " + msg)
		}
		fmt.Println()
		var rep *trace.Report
		if cfg.Trace {
			rep = s.Tracer().Analyze(o.horizon)
			// Trace-derived figures join the same registry the components
			// publish into, so -stats and -statsjson include them.
			rep.Publish(s.Sim.Metrics(), "trace")
		}
		if o.trace {
			fmt.Printf("channel trace: %d events on %d channels, %d suspects\n",
				rep.Events, len(rep.Channels), len(rep.Suspects))
			for _, line := range rep.Summary() {
				fmt.Println("  " + line)
			}
		}
		if o.power {
			s.PowerEstimate(cycles, 1100).Print(os.Stdout)
		}
		// Every component registered itself into the simulator's metrics
		// registry during construction; the dump walks the whole tree.
		if o.stats {
			s.Sim.Metrics().Dump(os.Stdout)
		}
		if o.statsJSON != "" {
			f, err := os.Create(o.statsJSON)
			if err == nil {
				err = s.Sim.Metrics().WriteJSON(f)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "socsim:", err)
				return 1
			}
			fmt.Printf("  wrote %s\n", o.statsJSON)
		}
	}
	return 0
}

// writeVCD writes rec's waveform to path and describes what it wrote.
func writeVCD(path string, rec *trace.Recorder) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	samples, changes, err := rec.WriteVCD(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return fmt.Sprintf("wrote %s (%d samples, %d changes)", path, samples, changes), err
}

// plan resolves -test and -check into the designs and passes to run.
// "all" selects every shipped design, or every pass; any design
// soc.Lookup knows, shipped test or fixture, is selectable by name, and
// every pass accepts it.
func plan(testName, checks string) ([]soc.TestCase, []analysis.Pass, error) {
	designs := append(soc.Tests(), soc.ExtraTests()...)
	if testName != "all" {
		f, ok := soc.Lookup(testName)
		if !ok {
			return nil, nil, fmt.Errorf("unknown test %q", testName)
		}
		designs = []soc.TestCase{f.TestCase}
	}
	if checks == "all" {
		return designs, analysis.Passes, nil
	}
	var passes []analysis.Pass
	for _, name := range strings.Split(checks, ",") {
		p, ok := analysis.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown check %q (want lint, rateck, verify or all)", name)
		}
		passes = append(passes, p)
	}
	return designs, passes, nil
}

// runChecks runs the selected analysis passes over each selected design;
// nothing is simulated. Designs are built from -mode and -gals alone, as
// socd builds them, and verify runs at mc's default depth, socd's
// default too, so the -checkjson array holds exactly the bodies socd
// serves. -vcd replays verify's first counterexample. The exit code is
// 1 when any pass reports an error, and 2 for an unknown design or pass
// or for -vcd with more than one design selected.
func runChecks(base soc.Config, mode, testName, checks, jsonPath, vcdPath string) int {
	designs, passes, err := plan(testName, checks)
	if err == nil && vcdPath != "" && len(designs) != 1 {
		err = fmt.Errorf("-vcd holds one design's counterexample; select one design with -test (%q selects %d)", testName, len(designs))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "socsim:", err)
		return 2
	}
	cfg := soc.DefaultConfig()
	cfg.Mode, cfg.GALS = base.Mode, base.GALS
	opt := analysis.Options{Depth: mc.DefaultDepth}
	failed := false
	var bodies [][]byte
	for _, tc := range designs {
		s, _ := tc.Build(cfg)
		fmt.Printf("%s:\n", tc.Name)
		for _, p := range passes {
			r := p.Run(s.Sim, opt)
			r.WriteTree(os.Stdout)
			failed = failed || r.Errors() > 0
			if jsonPath != "" {
				b, err := p.Body(tc.Name, mode, cfg.GALS, opt.Depth, r)
				if err != nil {
					fmt.Fprintln(os.Stderr, "socsim:", err)
					return 1
				}
				bodies = append(bodies, bytes.TrimRight(b, "\n"))
			}
			if m, ok := r.(*mc.Result); ok && vcdPath != "" && len(m.Counterexamples) > 0 {
				rec := trace.NewRecorder()
				m.Replay(rec, m.Counterexamples[0])
				msg, err := writeVCD(vcdPath, rec)
				if err != nil {
					fmt.Fprintln(os.Stderr, "socsim:", err)
					return 1
				}
				fmt.Println(msg)
			}
		}
	}
	if jsonPath != "" {
		out := append(append([]byte("[\n"), bytes.Join(bodies, []byte(",\n"))...), "\n]\n"...)
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "socsim:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if failed {
		return 1
	}
	return 0
}
