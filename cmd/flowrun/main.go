// Command flowrun pushes one bundled design through the complete
// C++-to-layout flow (Figure 1 of the paper): HLS optimization,
// scheduling/pipelining, logic synthesis to gates, RTL-cosimulation
// equivalence checking, static timing, and power analysis. Optionally it
// writes the mapped netlist as structural Verilog.
//
//	flowrun -design mac32 -clock 909 -vectors 100 -verilog mac32.v
//	flowrun -list
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/hls"
	"repro/internal/lint"
	"repro/internal/rtl"
	"repro/internal/synth"
	"repro/internal/trace"
)

var designs = map[string]func() *hls.Design{
	"mac16":      func() *hls.Design { return hls.MACDesign(16) },
	"mac32":      func() *hls.Design { return hls.MACDesign(32) },
	"fir8x16":    func() *hls.Design { return hls.FIRDesign(8, 16) },
	"fir16x32":   func() *hls.Design { return hls.FIRDesign(16, 32) },
	"addtree16":  func() *hls.Design { return hls.AdderTreeDesign(16, 32) },
	"alu32":      func() *hls.Design { return hls.ALUDesign(32) },
	"encoder32":  func() *hls.Design { return hls.EncoderDesign(32) },
	"decoder32":  func() *hls.Design { return hls.DecoderDesign(32) },
	"priarb32":   func() *hls.Design { return hls.PriorityArbiterDesign(32) },
	"maxtree8":   func() *hls.Design { return hls.MaxTreeDesign(8, 32) },
	"popcount32": func() *hls.Design { return hls.PopcountDesign(32) },
	"xbar_dst16": func() *hls.Design { return hls.CrossbarDstLoopDesign(16, 32) },
	"xbar_src16": func() *hls.Design { return hls.CrossbarSrcLoopDesign(16, 32) },
	"xbar_dst32": func() *hls.Design { return hls.CrossbarDstLoopDesign(32, 32) },
	"xbar_src32": func() *hls.Design { return hls.CrossbarSrcLoopDesign(32, 32) },
}

func main() {
	name := flag.String("design", "mac32", "bundled design name (see -list)")
	clock := flag.Int("clock", 909, "target clock period, ps")
	vectors := flag.Int("vectors", 50, "equivalence/power vectors")
	verilog := flag.String("verilog", "", "write structural Verilog to this file")
	vcd := flag.String("vcd", "", "write a VCD waveform of the port activity to this file")
	tb := flag.String("tb", "", "write a self-checking Verilog testbench to this file")
	list := flag.Bool("list", false, "list bundled designs")
	maxMuls := flag.Int("maxmuls", 0, "multiplier resource limit per stage (0 = unlimited)")
	iiSweep := flag.Bool("ii", false, "print the initiation-interval resource-sharing ablation")
	prove := flag.Bool("prove", false, "exhaustively prove netlist/golden equivalence (designs with <= 16 input bits)")
	flag.Parse()

	if *list {
		var names []string
		for n := range designs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	build, ok := designs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "flowrun: unknown design %q (try -list)\n", *name)
		os.Exit(2)
	}
	flow := core.DefaultFlow()
	flow.Cons.ClockPS = *clock
	flow.Cons.MaxMuls = *maxMuls

	// Lint the captured IR before spending flow time on it; error-severity
	// findings (invalid SSA, duplicate ports) fail fast.
	if lr := lint.CheckHLS(build()); len(lr.Diags) > 0 {
		lr.WriteTree(os.Stderr)
		if lr.Errors() > 0 {
			os.Exit(1)
		}
	}

	rep, err := flow.Run(build(), *vectors, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowrun:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
	fmt.Printf("  timing: critical path %d ps (%.0f MHz), %d logic levels\n",
		rep.Timing.CriticalPS, rep.Timing.FmaxMHz, rep.Timing.Levels)
	fmt.Printf("  area:   %.0f comb + %.0f seq = %d NAND2-equivalent gates\n",
		rep.Area.Comb, rep.Area.Sequential, rep.Area.GateCount)
	fmt.Printf("  power:  %v\n", rep.Power)
	fmt.Printf("  hls:    %d scheduler steps, %d pipeline stages\n", rep.Steps, rep.Stages)

	sched := rep.Schedule
	if *iiSweep {
		hls.PrintIISweep(os.Stdout, sched.Design.Name, hls.IISweep(sched, []int{1, 2, 4, 8}))
	}
	if *prove {
		n, err := synth.ProveEquivalence(build(), sched.Latency, rep.Netlist, 16)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowrun:", err)
			os.Exit(1)
		}
		fmt.Printf("  proved:  netlist ≡ golden model on all %d input combinations\n", n)
	}

	if *verilog != "" {
		if err := os.WriteFile(*verilog, []byte(rep.Netlist.Verilog()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "flowrun:", err)
			os.Exit(1)
		}
		comb, flops := rep.Netlist.CellCount()
		fmt.Printf("  wrote %s (%d cells, %d flops)\n", *verilog, comb, flops)
	}
	if *tb != "" {
		d := sched.Design
		r := rand.New(rand.NewSource(3))
		var vecs, exps []map[string]uint64
		for k := 0; k < *vectors; k++ {
			in := d.RandomInputs(r)
			vecs = append(vecs, in)
			exps = append(exps, d.Interpret(in))
		}
		text := rtl.VerilogTestbench(rep.Netlist, vecs, exps, sched.Latency)
		if err := os.WriteFile(*tb, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "flowrun:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s (%d self-checking vectors, latency %d)\n", *tb, *vectors, sched.Latency)
	}
	if *vcd != "" {
		f, err := os.Create(*vcd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowrun:", err)
			os.Exit(1)
		}
		v := trace.NewVCD(f)
		sim, err := rtl.NewSimulator(rep.Netlist)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flowrun:", err)
			os.Exit(1)
		}
		sim.AttachVCD(v)
		r := rand.New(rand.NewSource(2))
		for k := 0; k < *vectors; k++ {
			sim.Step(sched.Design.RandomInputs(r))
		}
		if err := v.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "flowrun:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "flowrun:", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s (%d cycles of port activity)\n", *vcd, *vectors)
	}
}
