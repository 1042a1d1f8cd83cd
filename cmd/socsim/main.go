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
//	socsim -test all -lint                # static design-rule check, no simulation
//	socsim -test all -rateck              # static communication-rate check, no simulation
//	socsim -test mcserdes -mc             # bounded model check, no simulation
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/connections"
	"repro/internal/lint"
	"repro/internal/mc"
	"repro/internal/ratecheck"
	"repro/internal/soc"
	"repro/internal/trace"
)

func main() {
	testName := flag.String("test", "all", "SoC test: memcpy|vecadd|dot|conv1d|kmeans|maxpool|all")
	mode := flag.String("mode", "tlm", "channel model: tlm (sim-accurate) | signal | rtl")
	galsOn := flag.Bool("gals", false, "fine-grained GALS: one clock generator per partition")
	shadow := flag.Bool("shadow", false, "gate-level shadow cosimulation of PE datapaths (rtl mode)")
	stall := flag.Float64("stall", 0, "stall-injection probability on every channel")
	seed := flag.Int64("seed", 1, "stall-injection seed")
	statsF := flag.Bool("stats", false, "dump the full per-component metrics tree")
	statsJSON := flag.String("statsjson", "", "write the metrics snapshot as JSON to this file")
	powerF := flag.Bool("power", false, "print the architectural power breakdown")
	vcd := flag.String("vcd", "", "write a VCD waveform of every traced channel (valid/ready/occ, grouped by component scope) to this file")
	traceF := flag.Bool("trace", false, "arm channel tracing and print the per-channel backpressure/deadlock report")
	horizon := flag.Uint64("horizon", 1000, "deadlock bound for -trace, in cycles of each channel's clock")
	maxCycles := flag.Uint64("maxcycles", 10_000_000, "cycle budget")
	lintF := flag.Bool("lint", false, "statically lint the selected designs (CDC/deadlock/connectivity rules) and exit without simulating")
	lintJSON := flag.String("lintjson", "", "write the combined lint diagnostics as JSON to this file (implies -lint)")
	rateF := flag.Bool("rateck", false, "statically check communication rates (SDF balance, buffer sizing, throughput bounds) and exit without simulating")
	rateJSON := flag.String("rateckjson", "", "write the combined rate diagnostics as JSON to this file (implies -rateck)")
	mcF := flag.Bool("mc", false, "bounded model check the selected designs (deadlock-freedom + sim/signal equivalence on the LI channel graph) and exit without simulating")
	mcJSON := flag.String("mcjson", "", "write the model-checking result as JSON to this file (implies -mc)")
	mcVCD := flag.String("mcvcd", "", "replay the first counterexample as a VCD waveform to this file (implies -mc)")
	mcDepth := flag.Int("mcdepth", 0, "unrolling bound for -mc (0 = default 64)")
	flag.Parse()

	cfg := soc.DefaultConfig()
	switch *mode {
	case "tlm":
		cfg.Mode = connections.ModeSimAccurate
	case "signal":
		cfg.Mode = connections.ModeSignalAccurate
	case "rtl":
		cfg.Mode = connections.ModeRTLCosim
	default:
		fmt.Fprintf(os.Stderr, "socsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	cfg.GALS = *galsOn
	cfg.ShadowNetlists = *shadow
	cfg.StallP = *stall
	cfg.StallSeed = *seed
	cfg.Trace = *vcd != "" || *traceF

	if *lintJSON != "" {
		*lintF = true
	}
	if *lintF {
		os.Exit(runLint(cfg, *testName, *lintJSON))
	}
	if *rateJSON != "" {
		*rateF = true
	}
	if *rateF {
		os.Exit(runRateck(cfg, *testName, *rateJSON))
	}
	if *mcJSON != "" || *mcVCD != "" {
		*mcF = true
	}
	if *mcF {
		os.Exit(runMC(cfg, *testName, *mcJSON, *mcVCD, *mcDepth))
	}

	any := false
	for _, tc := range append(soc.Tests(), soc.ExtraTests()...) {
		if *testName != "all" && tc.Name != *testName {
			continue
		}
		any = true
		s, verify := tc.Build(cfg)
		start := time.Now()
		cycles, err := s.Run(*maxCycles)
		wall := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "socsim: %s: %v\n", tc.Name, err)
			os.Exit(1)
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
		if *vcd != "" {
			f, err := os.Create(*vcd)
			var samples, changes uint64
			if err == nil {
				samples, changes, err = s.Tracer().WriteVCD(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "socsim:", err)
				os.Exit(1)
			}
			fmt.Printf("  wrote %s (%d samples, %d changes)", *vcd, samples, changes)
		}
		fmt.Println()
		var rep *trace.Report
		if cfg.Trace {
			rep = s.Tracer().Analyze(*horizon)
			// Trace-derived figures join the same registry the components
			// publish into, so -stats and -statsjson include them.
			rep.Publish(s.Sim.Metrics(), "trace")
		}
		if *traceF {
			fmt.Printf("channel trace: %d events on %d channels, %d suspects\n",
				rep.Events, len(rep.Channels), len(rep.Suspects))
			for _, line := range rep.Summary() {
				fmt.Println("  " + line)
			}
		}
		if *powerF {
			s.PowerEstimate(cycles, 1100).Print(os.Stdout)
		}
		// Every component registered itself into the simulator's metrics
		// registry during construction; the dump walks the whole tree.
		if *statsF {
			s.Sim.Metrics().Dump(os.Stdout)
		}
		if *statsJSON != "" {
			f, err := os.Create(*statsJSON)
			if err == nil {
				err = s.Sim.Metrics().WriteJSON(f)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "socsim:", err)
				os.Exit(1)
			}
			fmt.Printf("  wrote %s\n", *statsJSON)
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "socsim: unknown test %q\n", *testName)
		os.Exit(2)
	}
}

// runLint builds each selected design and runs the static design-rule
// checker over its elaborated channel/clock graph; nothing is simulated.
// The deliberately broken fixtures (soc.LintFixtures) are selectable by
// exact name but excluded from "all", so "-test all -lint" asserts that
// every shipped design is hazard-free. The exit code is 1 when any
// selected design has an error-severity diagnostic.
func runLint(cfg soc.Config, testName, jsonPath string) int {
	cases := append(soc.Tests(), soc.ExtraTests()...)
	if testName != "all" {
		cases = append(cases, soc.LintFixtures()...)
	}
	any, failed := false, false
	var all []lint.Diag
	for _, tc := range cases {
		if testName != "all" && tc.Name != testName {
			continue
		}
		any = true
		s, _ := tc.Build(cfg)
		r := lint.Check(s.Sim)
		fmt.Printf("%s:\n", tc.Name)
		r.WriteTree(os.Stdout)
		if r.Errors() > 0 {
			failed = true
		}
		// The combined JSON dump roots each design's diagnostics under its
		// test name so one file can span "-test all".
		for _, d := range r.Diags {
			d.Path = tc.Name + "/" + d.Path
			all = append(all, d)
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "socsim: unknown test %q\n", testName)
		return 2
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err == nil {
			err = lint.WriteDiagsJSON(f, all)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
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

// runMC builds each selected design and bounded-model-checks its
// latency-insensitive channel graph for deadlock-freedom and
// sim/signal-accurate equivalence; nothing is simulated. The clean
// examples (soc.MCExamples) and the seeded-bug fixtures
// (soc.MCFixtures) are selectable by exact name but excluded from
// "all", so "-test all -mc" asserts every shipped design's declared
// subgraph is safe within the bound. Exit code 1 when any selected
// design has an error-severity diagnostic; exit code 2 for an unknown
// design, or for -mcjson/-mcvcd with more than one design selected
// (each file holds one design's report).
func runMC(cfg soc.Config, testName, jsonPath, vcdPath string, depth int) int {
	cases := append(soc.Tests(), soc.ExtraTests()...)
	if testName != "all" {
		cases = append(cases, soc.MCExamples()...)
		cases = append(cases, soc.MCFixtures()...)
	}
	var selected []soc.TestCase
	for _, tc := range cases {
		if testName == "all" || tc.Name == testName {
			selected = append(selected, tc)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "socsim: unknown test %q\n", testName)
		return 2
	}
	if (jsonPath != "" || vcdPath != "") && len(selected) != 1 {
		fmt.Fprintf(os.Stderr, "socsim: -mcjson and -mcvcd write one design's report; select one design with -test (%q selects %d)\n",
			testName, len(selected))
		return 2
	}
	failed := false
	for _, tc := range selected {
		s, _ := tc.Build(cfg)
		r := mc.Check(s.Sim, mc.Options{Depth: depth})
		fmt.Printf("%s:\n", tc.Name)
		r.WriteTree(os.Stdout)
		if r.Errors() > 0 {
			failed = true
		}
		if jsonPath != "" {
			f, err := os.Create(jsonPath)
			if err == nil {
				err = r.WriteJSON(f)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "socsim:", err)
				return 1
			}
			fmt.Printf("wrote %s\n", jsonPath)
		}
		if vcdPath != "" && len(r.Counterexamples) > 0 {
			rec := trace.NewRecorder()
			r.Replay(rec, r.Counterexamples[0])
			f, err := os.Create(vcdPath)
			var samples, changes uint64
			if err == nil {
				samples, changes, err = rec.WriteVCD(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "socsim:", err)
				return 1
			}
			fmt.Printf("wrote %s (%d samples, %d changes)\n", vcdPath, samples, changes)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// runRateck is the rate-analysis twin of runLint: build each selected
// design, solve its balance equations, and print bounds; nothing is
// simulated. The mis-rated fixtures (soc.RateFixtures) are selectable by
// exact name but excluded from "all", so "-test all -rateck" asserts
// every shipped design is rate-consistent.
func runRateck(cfg soc.Config, testName, jsonPath string) int {
	cases := append(soc.Tests(), soc.ExtraTests()...)
	if testName != "all" {
		cases = append(cases, soc.LintFixtures()...)
		cases = append(cases, soc.RateFixtures()...)
	}
	any, failed := false, false
	var all []lint.Diag
	for _, tc := range cases {
		if testName != "all" && tc.Name != testName {
			continue
		}
		any = true
		s, _ := tc.Build(cfg)
		r := ratecheck.Check(s.Sim)
		fmt.Printf("%s:\n", tc.Name)
		r.WriteTree(os.Stdout)
		if r.Errors() > 0 {
			failed = true
		}
		for _, d := range r.Diags {
			d.Path = tc.Name + "/" + d.Path
			all = append(all, d)
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "socsim: unknown test %q\n", testName)
		return 2
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err == nil {
			err = lint.WriteDiagsJSON(f, all)
		}
		if err == nil {
			err = f.Close()
		}
		if err != nil {
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
