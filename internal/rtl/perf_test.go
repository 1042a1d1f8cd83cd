package rtl_test

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/hls"
	"repro/internal/rtl"
	"repro/internal/synth"
)

// Gate-level evaluator throughput. These benches drive the levelized
// testbench designs the flow's own tests cosimulate (the MAC, FIR and
// ALU datapaths) through the compiled Simulator and the reference
// interpreter and report cycles/sec; TestRTLPerfGate holds the floor in
// CI. EXPERIMENTS.md "Compiled RTL throughput" records a quiet-machine
// run.

// rtlBenchDesigns are the levelized testbench designs the throughput is
// measured on.
func rtlBenchDesigns() []*hls.Design {
	return []*hls.Design{
		hls.MACDesign(32),
		hls.FIRDesign(8, 16),
		hls.ALUDesign(32),
	}
}

func rtlBenchNetlist(d *hls.Design) *rtl.Netlist {
	_, nl := synth.Compile(d, hls.DefaultConstraints())
	return nl
}

// runRef drives cycles random vectors through the reference interpreter
// on the map-based Step, the consumers' path before the compiled program
// existed.
func runRef(ref *rtl.RefSim, d *hls.Design, cycles int) {
	r := rand.New(rand.NewSource(9))
	in := map[string]uint64{}
	for k := 0; k < cycles; k++ {
		for _, p := range d.Inputs {
			in[p.Name] = r.Uint64()
		}
		ref.Step(in)
	}
}

// runCompiled drives cycles random vectors through the compiled
// Simulator on the StepWords fast path the consumers use now.
func runCompiled(sim *rtl.Simulator, cycles int) {
	r := rand.New(rand.NewSource(9))
	inw := make([]uint64, len(sim.InputPorts()))
	for k := 0; k < cycles; k++ {
		for i := range inw {
			inw[i] = r.Uint64()
		}
		sim.StepWords(inw, nil)
	}
}

// newRunner builds the reference interpreter (ref) or the compiled
// Simulator for d's netlist and returns a function that runs it for a
// number of cycles.
func newRunner(d *hls.Design, nl *rtl.Netlist, ref bool) (func(cycles int), error) {
	if ref {
		rs, err := rtl.NewRefSim(nl)
		return func(cycles int) { runRef(rs, d, cycles) }, err
	}
	sim, err := rtl.NewSimulator(nl)
	return func(cycles int) { runCompiled(sim, cycles) }, err
}

func benchRTL(b *testing.B, ref bool) {
	for _, d := range rtlBenchDesigns() {
		b.Run(d.Name, func(b *testing.B) {
			nl := rtlBenchNetlist(d)
			run, err := newRunner(d, nl, ref)
			if err != nil {
				b.Fatal(err)
			}
			comb, _ := nl.CellCount()
			b.ResetTimer()
			run(b.N)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(comb), "ns/cell-cycle")
		})
	}
}

func BenchmarkRTLInterp(b *testing.B)   { benchRTL(b, true) }
func BenchmarkRTLCompiled(b *testing.B) { benchRTL(b, false) }

// TestRTLPerfGate is the regression gate for the compiled hot path. It
// is opt-in via RTL_PERF_GATE=1 because wall-clock throughput is
// machine-dependent. It fails when the compiled Simulator falls under
// minSpeedup× the reference interpreter on any bench design. The floor
// sits well below the 5-9× a quiet machine records (EXPERIMENTS.md): its
// job is to catch a gross regression of the compiled program, down
// toward the per-cell interpreter's speed, without flaking on loaded
// single-vCPU CI hosts where the ratio compresses.
func TestRTLPerfGate(t *testing.T) {
	if os.Getenv("RTL_PERF_GATE") == "" {
		t.Skip("set RTL_PERF_GATE=1 to run the throughput gate")
	}
	const minSpeedup = 2.0
	for _, d := range rtlBenchDesigns() {
		nl := rtlBenchNetlist(d)
		measure := func(ref bool) float64 {
			run, err := newRunner(d, nl, ref)
			if err != nil {
				t.Fatal(err)
			}
			comb, _ := nl.CellCount()
			cycles := 4000000 / (comb + 1)
			if cycles < 200 {
				cycles = 200
			}
			run(cycles / 4) // warmup
			best := 0.0
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				run(cycles)
				if cps := float64(cycles) / time.Since(start).Seconds(); cps > best {
					best = cps
				}
			}
			return best
		}
		interp := measure(true)
		compiled := measure(false)
		ratio := compiled / interp
		fmt.Printf("rtl perf gate: %-12s interp %9.0f cycles/sec, compiled %9.0f cycles/sec (%.1fx)\n",
			d.Name, interp, compiled, ratio)
		if ratio < minSpeedup {
			t.Errorf("%s: compiled/interp = %.2fx, gate requires >= %.1fx", d.Name, ratio, minSpeedup)
		}
	}
}
