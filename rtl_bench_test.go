package repro

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

// --- BENCH_rtl.json: gate-level evaluator throughput ---
//
// The compiled backend (internal/rtl/compile.go) must make RTL
// cosimulation an order-of-magnitude item, not a per-cell interpreter
// crawl. These benches drive the levelized testbench designs the flow's
// own tests cosimulate — the MAC, FIR and ALU datapaths — through both
// backends and report cycles/sec; BENCH_rtl.json records the trajectory
// and TestRTLPerfGate holds the floor in CI.

// rtlBenchDesigns are the levelized testbench designs the kernel-speed
// trajectory is recorded on.
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

// runRTLCycles drives cycles random vectors through sim. The
// interpreter runs the map-based Step the consumers used before the
// compiled backend existed; the compiled program runs the StepWords
// fast path they use now — the two ends of the hot-path migration.
func runRTLCycles(sim *rtl.Simulator, d *hls.Design, cycles int) {
	r := rand.New(rand.NewSource(9))
	if sim.Backend() == "compiled" {
		inPorts := sim.InputPorts()
		inw := make([]uint64, len(inPorts))
		for k := 0; k < cycles; k++ {
			for i := range inw {
				inw[i] = r.Uint64()
			}
			sim.StepWords(inw, nil)
		}
		return
	}
	in := map[string]uint64{}
	for k := 0; k < cycles; k++ {
		for _, p := range d.Inputs {
			in[p.Name] = r.Uint64()
		}
		sim.Step(in)
	}
}

func benchRTL(b *testing.B, backend rtl.Backend) {
	for _, d := range rtlBenchDesigns() {
		b.Run(d.Name, func(b *testing.B) {
			nl := rtlBenchNetlist(d)
			sim, err := rtl.NewSimulatorBackend(nl, backend)
			if err != nil {
				b.Fatal(err)
			}
			comb, _ := nl.CellCount()
			b.ResetTimer()
			runRTLCycles(sim, d, b.N)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(comb), "ns/cell-cycle")
		})
	}
}

func BenchmarkRTLInterp(b *testing.B)   { benchRTL(b, rtl.BackendInterp) }
func BenchmarkRTLCompiled(b *testing.B) { benchRTL(b, rtl.BackendCompiled) }

// TestRTLPerfGate is the regression gate for the compiled hot path. It
// is opt-in via RTL_PERF_GATE=1 because wall-clock throughput is
// machine-dependent. It fails when the
// compiled backend falls under minSpeedup× the interpreter on any
// bench design. The floor sits well below the 5-9× a quiet machine
// records in BENCH_rtl.json: its job is to catch a silent fallback to
// the interpreter (ratio ~1×) or a gross regression, without flaking
// on loaded single-vCPU CI hosts where the ratio compresses.
func TestRTLPerfGate(t *testing.T) {
	if os.Getenv("RTL_PERF_GATE") == "" {
		t.Skip("set RTL_PERF_GATE=1 to run the throughput gate")
	}
	const minSpeedup = 2.0
	for _, d := range rtlBenchDesigns() {
		nl := rtlBenchNetlist(d)
		measure := func(backend rtl.Backend) float64 {
			sim, err := rtl.NewSimulatorBackend(nl, backend)
			if err != nil {
				t.Fatal(err)
			}
			if backend == rtl.BackendCompiled && sim.Backend() != "compiled" {
				t.Fatalf("%s: compiled backend not selected", d.Name)
			}
			comb, _ := nl.CellCount()
			cycles := 4000000 / (comb + 1)
			if cycles < 200 {
				cycles = 200
			}
			runRTLCycles(sim, d, cycles/4) // warmup
			best := 0.0
			for rep := 0; rep < 3; rep++ {
				start := time.Now()
				runRTLCycles(sim, d, cycles)
				if cps := float64(cycles) / time.Since(start).Seconds(); cps > best {
					best = cps
				}
			}
			return best
		}
		interp := measure(rtl.BackendInterp)
		compiled := measure(rtl.BackendCompiled)
		ratio := compiled / interp
		fmt.Printf("rtl perf gate: %-12s interp %9.0f cycles/sec, compiled %9.0f cycles/sec (%.1fx)\n",
			d.Name, interp, compiled, ratio)
		if ratio < minSpeedup {
			t.Errorf("%s: compiled/interp = %.2fx, gate requires >= %.1fx", d.Name, ratio, minSpeedup)
		}
	}
}
