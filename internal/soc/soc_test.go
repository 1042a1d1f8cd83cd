package soc

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/connections"
	"repro/internal/riscv"
)

const maxCycles = 5_000_000

func runCase(t *testing.T, tc TestCase, cfg Config) uint64 {
	t.Helper()
	// SOC_TRACE=1 runs the whole suite with channel tracing armed — the
	// CI variant proving an armed chip still passes every system test.
	if os.Getenv("SOC_TRACE") == "1" {
		cfg.Trace = true
	}
	s, verify := tc.Build(cfg)
	cycles, err := s.Run(maxCycles)
	if err != nil {
		t.Fatalf("%s: %v", tc.Name, err)
	}
	if s.RV.ExitCode != 0 {
		t.Fatalf("%s: firmware exit code %d", tc.Name, s.RV.ExitCode)
	}
	if err := verify(s); err != nil {
		t.Fatal(err)
	}
	return cycles
}

func TestAllSoCTestsSimAccurate(t *testing.T) {
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			cycles := runCase(t, tc, DefaultConfig())
			if cycles == 0 {
				t.Fatal("zero elapsed cycles")
			}
			t.Logf("%s: %d cycles", tc.Name, cycles)
		})
	}
}

func TestSoCRTLCosimFunctional(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = connections.ModeRTLCosim
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			runCase(t, tc, cfg)
		})
	}
}

// The signal-accurate model at SoC scope: every port operation in every
// router, NI and node handler serializes, so the chip still computes the
// right answer but burns far more simulated cycles — the Figure 3 effect
// at system scale.
func TestSoCSignalAccurateMode(t *testing.T) {
	tlm := runCase(t, Tests()[0], DefaultConfig())
	cfg := DefaultConfig()
	cfg.Mode = connections.ModeSignalAccurate
	sig := runCase(t, Tests()[0], cfg)
	if sig < 3*tlm {
		t.Fatalf("signal-accurate %d cycles vs TLM %d — expected heavy serialization", sig, tlm)
	}
}

// Fine-grained GALS: every partition on its own drifting clock, pausible
// FIFOs on all crossings — results must be identical to single-clock.
func TestSoCGALSFunctional(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GALS = true
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			s, verify := tc.Build(cfg)
			if _, err := s.Run(maxCycles); err != nil {
				t.Fatal(err)
			}
			if err := verify(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSoCGALSPausesOccur(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GALS = true
	s, verify := buildMemcpy(cfg)
	if _, err := s.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if err := verify(s); err != nil {
		t.Fatal(err)
	}
	if s.Pauses() == 0 {
		t.Fatal("no pausible-clock pauses across 20 drifting domains")
	}
}

// The paper's stall-injection verification feature at SoC scope: random
// valid/ready withholding on every channel must not change results.
func TestSoCStallInjectionFunctional(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StallP = 0.10
	cfg.StallSeed = 42
	for _, tc := range []TestCase{Tests()[0], Tests()[1], Tests()[2]} {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			runCase(t, tc, cfg)
		})
	}
}

func TestStallInjectionSlowsSoC(t *testing.T) {
	base := runCase(t, Tests()[1], DefaultConfig())
	cfg := DefaultConfig()
	cfg.StallP = 0.15
	cfg.StallSeed = 9
	stalled := runCase(t, Tests()[1], cfg)
	if stalled <= base {
		t.Fatalf("stalled run %d cycles <= clean run %d", stalled, base)
	}
}

// The Figure 6 cycle-accuracy claim: RTL-cosim mode adds pipeline
// latencies, so elapsed cycles grow — but only by a few percent.
func TestFig6CycleErrorSmall(t *testing.T) {
	for _, tc := range Tests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			tlm := runCase(t, tc, DefaultConfig())
			cfg := DefaultConfig()
			cfg.Mode = connections.ModeRTLCosim
			rtl := runCase(t, tc, cfg)
			err := 100 * (float64(rtl) - float64(tlm)) / float64(rtl)
			t.Logf("%s: TLM %d cycles, RTL %d cycles, error %.2f%%", tc.Name, tlm, rtl, err)
			if err < 0 {
				t.Fatalf("RTL mode faster than TLM (%d vs %d)", rtl, tlm)
			}
			if err > 12 {
				t.Fatalf("cycle error %.1f%% implausibly large", err)
			}
		})
	}
}

// TestFig6Bands runs the full Figure 6 experiment (with gate-level
// shadow cosimulation) and checks that both measured axes land in the
// paper's regime: a few percent elapsed-cycle error and an order of
// magnitude or more wall-time advantage for the performance model.
func TestFig6Bands(t *testing.T) {
	if testing.Short() {
		t.Skip("full RTL-cosim measurement is slow")
	}
	rows, err := RunFig6(maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.CycleErrPct < 0.5 || r.CycleErrPct > 6 {
			t.Errorf("%s: cycle error %.2f%% outside the paper's few-percent band", r.Test, r.CycleErrPct)
		}
	}
	// The speedup axis is wall-clock: the TLM halves finish in tens of
	// milliseconds, so one scheduling stall on a loaded host collapses
	// a ratio that measures 14-23x when quiet. Re-measure once before
	// calling a low ratio a regression.
	for attempt := 0; ; attempt++ {
		low := ""
		for _, r := range rows {
			if r.Speedup < 8 {
				low = r.Test + ": speedup " + strconv.FormatFloat(r.Speedup, 'f', 1, 64) + "x"
			}
		}
		if low == "" {
			break
		}
		if attempt == 1 {
			t.Errorf("%s — RTL cosim should be at least ~an order of magnitude slower", low)
			break
		}
		t.Logf("%s below band, re-measuring once (transient load?)", low)
		if rows, err = RunFig6(maxCycles); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runCase(t, Tests()[2], DefaultConfig())
	b := runCase(t, Tests()[2], DefaultConfig())
	if a != b {
		t.Fatalf("two identical runs took %d and %d cycles", a, b)
	}
}

// TestIONodeDMAPath drives data in through the I/O partition, the way
// the testchip's FPGA host does: the host preloads the IO node's buffer,
// firmware DMAs it IO → GML → a PE → GMR over the NoC.
func TestIONodeDMAPath(t *testing.T) {
	const n = 48
	cfg := DefaultConfig()
	fw := NewFirmware()
	fw.Send(NodeIO, ReadMsg(0, n, NodeGML, 0, NodeRV)) // off-chip -> GML
	fw.WaitDone(1)
	fw.Send(NodeGML, ReadMsg(0, n, 5, 0, NodeRV)) // GML -> PE5 scratch
	fw.WaitDone(2)
	fw.Send(5, ReadMsg(0, n, NodeGMR, 100, NodeRV)) // PE5 -> GMR
	fw.WaitDone(3)
	fw.Exit(0)

	s := New(cfg, fw.Assemble())
	for i := 0; i < n; i++ {
		s.IO.Mem.Write(i, uint64(i)*7+3)
	}
	if _, err := s.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := uint64(i)*7 + 3
		if got := s.GMR.Mem.Read(100 + i); got != want {
			t.Fatalf("GMR[%d] = %d, want %d", 100+i, got, want)
		}
	}
	if s.IO.Stats.ReadsOut != n {
		t.Fatalf("IO node streamed %d words, want %d", s.IO.Stats.ReadsOut, n)
	}
}

// TestAXIBusControlPlane exercises the Figure 5 AXI bus: firmware writes
// a MUL-computed pattern into GML through the AXI window, triggers a NoC
// DMA copying it to GMR, then reads GMR back through AXI and compares —
// both global-memory ports and the M extension in one program.
func TestAXIBusControlPlane(t *testing.T) {
	const n = 16
	cfg := DefaultConfig()

	fw := NewFirmware()
	p := fw.P
	// for i in [0,n): GML[i] = i * 2654435761 (via MUL)
	p.LUI(riscv.S0, AXIWindow)
	p.LI(riscv.S1, 0) // i
	p.LI(riscv.S2, n)
	p.LI(riscv.S3, 2654435761) // knuth constant
	p.Label("wr")
	p.MUL(riscv.T0, riscv.S1, riscv.S3)
	p.SLLI(riscv.T1, riscv.S1, 2)
	p.ADD(riscv.T1, riscv.T1, riscv.S0)
	p.SW(riscv.T0, riscv.T1, 0)
	p.ADDI(riscv.S1, riscv.S1, 1)
	p.BLT(riscv.S1, riscv.S2, "wr")
	// DMA GML[0..n) -> GMR[0..n) over the NoC data plane.
	fw.Send(NodeGML, ReadMsg(0, n, NodeGMR, 0, NodeRV))
	fw.WaitDone(1)
	// Read back GMR[0..n) through AXI (second half of the window) and
	// verify in firmware.
	gmrBase := uint32(cfg.GMWords * 4)
	p.LI(riscv.S1, 0)
	p.Label("rd")
	p.SLLI(riscv.T1, riscv.S1, 2)
	p.ADD(riscv.T1, riscv.T1, riscv.S0)
	p.LI(riscv.T2, gmrBase)
	p.ADD(riscv.T1, riscv.T1, riscv.T2)
	p.LW(riscv.T0, riscv.T1, 0)
	p.MUL(riscv.T2, riscv.S1, riscv.S3)
	p.BNE(riscv.T0, riscv.T2, "fail")
	p.ADDI(riscv.S1, riscv.S1, 1)
	p.BLT(riscv.S1, riscv.S2, "rd")
	fw.Exit(0)
	p.Label("fail")
	fw.Exit(1)

	s := New(cfg, fw.Assemble())
	if _, err := s.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	if s.RV.ExitCode != 0 {
		t.Fatalf("firmware verification failed (exit %d)", s.RV.ExitCode)
	}
	if s.RV.AXITransactions() < 2*n {
		t.Fatalf("only %d AXI transactions recorded", s.RV.AXITransactions())
	}
	// Host-side cross-check of both memories.
	for i := 0; i < n; i++ {
		want := uint64(uint32(i) * 2654435761)
		if got := s.GML.Mem.Read(i); got != want {
			t.Fatalf("GML[%d] = %d, want %d", i, got, want)
		}
		if got := s.GMR.Mem.Read(i); got != want {
			t.Fatalf("GMR[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestExtraWorkloads(t *testing.T) {
	for _, tc := range ExtraTests() {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			runCase(t, tc, DefaultConfig())
		})
		t.Run(tc.Name+"_gals", func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GALS = true
			s, verify := tc.Build(cfg)
			if _, err := s.Run(maxCycles); err != nil {
				t.Fatal(err)
			}
			if err := verify(s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPowerEstimate(t *testing.T) {
	s, verify := buildConv1D(DefaultConfig())
	cycles, err := s.Run(maxCycles)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(s); err != nil {
		t.Fatal(err)
	}
	pb := s.PowerEstimate(cycles, 1100)
	if pb.TotalMW <= 0 || pb.PEsMW <= 0 || pb.NoCMW <= 0 || pb.SRAMMW <= 0 || pb.RVMW <= 0 {
		t.Fatalf("degenerate power breakdown: %+v", pb)
	}
	if pb.TotalMW < pb.LeakMW {
		t.Fatal("total below leakage")
	}
	// An idle chip burns only leakage.
	idle := s.PowerEstimate(0, 1100)
	if idle.TotalMW != 0 {
		t.Fatalf("zero-cycle estimate should be zero, got %+v", idle)
	}
}

func TestKernelDotF16(t *testing.T) {
	// Exercise the binary16 kernel path directly through one PE.
	cfg := DefaultConfig()
	fw := NewFirmware()
	fw.Send(0, ExecMsg(KDotF16, 0, 8, 16, 4, 0, NodeRV, 3))
	fw.WaitDone(1)
	fw.Exit(0)
	s := New(cfg, fw.Assemble())
	// a = [1.0, 2.0, 0.5, 4.0], b = [2.0, 3.0, 4.0, 0.25] in binary16.
	av := []uint64{0x3c00, 0x4000, 0x3800, 0x4400}
	bv := []uint64{0x4000, 0x4200, 0x4400, 0x3400}
	for i := range av {
		s.PEs[0].Mem.Write(i, av[i])
		s.PEs[0].Mem.Write(8+i, bv[i])
	}
	if _, err := s.Run(maxCycles); err != nil {
		t.Fatal(err)
	}
	// 1*2 + 2*3 + 0.5*4 + 4*0.25 = 11.0 -> binary16 0x4980
	if got := s.PEs[0].Mem.Read(16); got != 0x4980 {
		t.Fatalf("f16 dot = %#x, want 0x4980", got)
	}
}
