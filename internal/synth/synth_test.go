package synth

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/hls"
	"repro/internal/rtl"
)

// checkEquivalence streams random vectors through the gate-level netlist
// and compares each delayed output against the golden interpreter.
func checkEquivalence(t *testing.T, d *hls.Design, cons hls.Constraints, optimize bool, vectors int, seed int64) *rtl.Netlist {
	t.Helper()
	var sched *hls.Schedule
	var nl *rtl.Netlist
	if optimize {
		sched, nl = Compile(d, cons)
	} else {
		sched = hls.Pipeline(hls.Optimize(d), cons)
		nl = Map(sched)
	}
	sim, err := rtl.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	if _, err := Cosim(d, sched.Latency, sim, vectors, func(int) map[string]uint64 { return d.RandomInputs(r) }); err != nil {
		t.Fatalf("opt=%v latency=%d: %v", optimize, sched.Latency, err)
	}
	return nl
}

func allDesigns() []*hls.Design {
	return []*hls.Design{
		hls.MACDesign(12),
		hls.FIRDesign(6, 10),
		hls.AdderTreeDesign(7, 16),
		hls.ALUDesign(12),
		hls.CrossbarSrcLoopDesign(4, 8),
		hls.CrossbarDstLoopDesign(4, 8),
		hls.EncoderDesign(8),
		hls.DecoderDesign(8),
		hls.PriorityArbiterDesign(10),
		hls.MaxTreeDesign(6, 14),
		hls.PopcountDesign(17),
	}
}

// The central synthesis property: for every bundled design, the mapped
// netlist is cycle-accurate-equivalent to the golden model, pipelined and
// combinational, optimized and raw.
func TestNetlistEquivalence(t *testing.T) {
	for _, d := range allDesigns() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			checkEquivalence(t, d, hls.Constraints{ClockPS: 100000, NoPipeline: true}, false, 40, 1)
			checkEquivalence(t, d, hls.Constraints{ClockPS: 100000, NoPipeline: true}, true, 40, 2)
			checkEquivalence(t, d, hls.Constraints{ClockPS: 500}, true, 40, 3)
		})
	}
}

func TestPipelinedMulDeepClock(t *testing.T) {
	// Aggressive clock forces a deep pipeline; equivalence must hold.
	d := hls.MACDesign(16)
	checkEquivalence(t, d, hls.Constraints{ClockPS: 250}, true, 60, 4)
}

func TestOptimizeShrinksNetlist(t *testing.T) {
	d := hls.Optimize(hls.CrossbarSrcLoopDesign(8, 16))
	s := hls.Pipeline(d, hls.DefaultConstraints())
	raw := Map(s)
	opt := Optimize(raw)
	rawC, _ := raw.CellCount()
	optC, _ := opt.CellCount()
	if optC >= rawC {
		t.Fatalf("optimize did not shrink: %d -> %d cells", rawC, optC)
	}
}

func TestSTAMonotoneInWidth(t *testing.T) {
	lib := &Default16nm
	var prev int
	for _, w := range []int{4, 8, 16, 32} {
		_, nl := Compile(hls.AdderTreeDesign(2, w), hls.Constraints{ClockPS: 100000, NoPipeline: true})
		tm := STA(nl, lib)
		if tm.CriticalPS <= prev {
			t.Fatalf("width %d critical path %dps not longer than previous %dps", w, tm.CriticalPS, prev)
		}
		prev = tm.CriticalPS
	}
}

func TestPipeliningImprovesFmax(t *testing.T) {
	lib := &Default16nm
	_, combNl := Compile(hls.FIRDesign(8, 16), hls.Constraints{ClockPS: 100000, NoPipeline: true})
	_, pipedNl := Compile(hls.FIRDesign(8, 16), hls.Constraints{ClockPS: 450})
	comb, piped := STA(combNl, lib), STA(pipedNl, lib)
	if piped.CriticalPS >= comb.CriticalPS {
		t.Fatalf("pipelined critical %dps >= combinational %dps", piped.CriticalPS, comb.CriticalPS)
	}
}

// The paper's §2.4 case study at gate level: 32-lane 32-bit crossbar,
// src-loop vs dst-loop. The penalty should be in the vicinity of the
// paper's 25%.
func TestCrossbarQoRPenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("32-lane crossbar mapping is slow")
	}
	lib := &Default16nm
	cons := hls.DefaultConstraints()
	_, srcNl := Compile(hls.CrossbarSrcLoopDesign(32, 32), cons)
	_, dstNl := Compile(hls.CrossbarDstLoopDesign(32, 32), cons)
	src, dst := Report(srcNl, lib), Report(dstNl, lib)
	ratio := src.Total / dst.Total
	t.Logf("src-loop %d gates, dst-loop %d gates, penalty %.1f%%", src.GateCount, dst.GateCount, (ratio-1)*100)
	if ratio < 1.10 || ratio > 1.60 {
		t.Fatalf("src/dst gate ratio %.2f outside the expected ~1.25 region", ratio)
	}
}

func TestReportBreakdown(t *testing.T) {
	lib := &Default16nm
	_, nl := Compile(hls.MACDesign(8), hls.Constraints{ClockPS: 400})
	r := Report(nl, lib)
	if r.Sequential == 0 {
		t.Fatal("pipelined design reports no flop area")
	}
	if r.Comb == 0 || r.Total != r.Comb+r.Sequential {
		t.Fatalf("area breakdown inconsistent: %+v", r)
	}
	if r.GateCount < 100 {
		t.Fatalf("8-bit MAC mapped to only %d gates", r.GateCount)
	}
}

func TestVerilogEmission(t *testing.T) {
	_, nl := Compile(hls.MACDesign(4), hls.Constraints{ClockPS: 200})
	v := nl.Verilog()
	for _, want := range []string{"module mac_4", "input clk", "endmodule", "always @(posedge clk)"} {
		if !strings.Contains(v, want) {
			t.Fatalf("verilog missing %q:\n%s", want, v)
		}
	}
}

func TestSimulatorTogglesCounted(t *testing.T) {
	s, nl := Compile(hls.AdderTreeDesign(4, 8), hls.Constraints{ClockPS: 100000, NoPipeline: true})
	sim, err := rtl.NewSimulator(nl)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for k := 0; k < 20; k++ {
		sim.Step(s.Design.RandomInputs(r))
	}
	if sim.Toggles == 0 {
		t.Fatal("no toggles recorded under random stimulus")
	}
}

func BenchmarkMapCrossbarDst16(b *testing.B) {
	d := hls.Optimize(hls.CrossbarDstLoopDesign(16, 32))
	s := hls.Pipeline(d, hls.DefaultConstraints())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Map(s)
	}
}

func BenchmarkNetlistSimFIR(b *testing.B) {
	s, nl := Compile(hls.FIRDesign(8, 16), hls.DefaultConstraints())
	sim, err := rtl.NewSimulator(nl)
	if err != nil {
		b.Fatal(err)
	}
	in := s.Design.RandomInputs(rand.New(rand.NewSource(6)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step(in)
	}
}
