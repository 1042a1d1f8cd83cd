package soc

import (
	"fmt"
	"io"

	"repro/internal/power"
	"repro/internal/stats"
)

// PowerBreakdown is the SoC's architectural power estimate, assembled
// from the activity counters the simulation collects — the Power
// Analysis stage of the paper's Figure 1, fed by simulation activity
// instead of an FSDB trace.
type PowerBreakdown struct {
	Cycles  uint64
	FreqMHz float64

	PEsMW   float64 // PE datapath + control dynamic power
	NoCMW   float64 // router/link energy per flit-hop
	SRAMMW  float64 // scratchpads + global memory accesses
	RVMW    float64 // controller core
	LeakMW  float64 // leakage across all partitions
	TotalMW float64
}

// Energy model constants for the 16nm-class node, per event.
const (
	pjPerFlitHop = 1.1  // router traversal + link
	pjPerLaneOp  = 0.35 // one vector-lane ALU operation
	pjPerRVInstr = 6.0  // controller CPI=1 instruction energy
	socGateCount = 16*280_000 + 2*350_000 + 600_000 + 150_000
)

// PowerEstimate converts the chip's activity counters into average power
// over the elapsed cycles at the given clock frequency.
func (s *SoC) PowerEstimate(cycles uint64, freqMHz float64) PowerBreakdown {
	pb := PowerBreakdown{Cycles: cycles, FreqMHz: freqMHz}
	if cycles == 0 {
		return pb
	}
	m := power.Default16nm
	perCycleToMW := freqMHz * 1e6 / 1e9 // pJ/cycle → mW

	// Vector-lane operations: every kernel word processed is one lane op;
	// WritesIn/ReadsOut approximate the operand traffic.
	var laneOps, flitHops, sramReads, sramWrites float64
	for _, pe := range s.PEs {
		laneOps += float64(pe.Stats.WritesIn + pe.Stats.ReadsOut)
		r, w := pe.Mem.Accesses()
		sramReads += float64(r)
		sramWrites += float64(w)
	}
	for _, rt := range s.Routers {
		flitHops += float64(rt.Stats.FlitsOut)
	}
	for _, gm := range []*MemNode{s.GML, s.GMR, s.IO} {
		r, w := gm.Mem.Accesses()
		sramReads += float64(r)
		sramWrites += float64(w)
	}

	pb.PEsMW = laneOps * pjPerLaneOp / float64(cycles) * perCycleToMW
	pb.NoCMW = flitHops * pjPerFlitHop / float64(cycles) * perCycleToMW
	pb.SRAMMW = (sramReads*m.SRAMReadPJ + sramWrites*m.SRAMWritePJ) / float64(cycles) * perCycleToMW
	pb.RVMW = float64(s.RV.CPU.Instret) * pjPerRVInstr / float64(cycles) * perCycleToMW
	pb.LeakMW = float64(socGateCount) * m.LeakNWPerGate / 1e6
	pb.TotalMW = pb.PEsMW + pb.NoCMW + pb.SRAMMW + pb.RVMW + pb.LeakMW
	pb.publish(s)
	return pb
}

// publish mirrors the breakdown into the metrics registry under
// soc/power, so the estimate appears in the unified stats dump alongside
// the activity counters it was derived from. The first estimate
// registers the source; snapshots report the latest.
func (pb PowerBreakdown) publish(s *SoC) {
	if s.power == nil {
		s.Sim.Metrics().Source("soc/power", func(emit stats.Emit) {
			p := s.power
			emit("pes_mw", p.PEsMW)
			emit("noc_mw", p.NoCMW)
			emit("sram_mw", p.SRAMMW)
			emit("rv_mw", p.RVMW)
			emit("leak_mw", p.LeakMW)
			emit("total_mw", p.TotalMW)
			emit("freq_mhz", p.FreqMHz)
		})
	}
	s.power = &pb
}

// Print renders the breakdown.
func (pb PowerBreakdown) Print(w io.Writer) {
	fmt.Fprintf(w, "power @ %.0f MHz over %d cycles:\n", pb.FreqMHz, pb.Cycles)
	fmt.Fprintf(w, "  PE datapaths %8.2f mW\n", pb.PEsMW)
	fmt.Fprintf(w, "  NoC          %8.2f mW\n", pb.NoCMW)
	fmt.Fprintf(w, "  SRAM         %8.2f mW\n", pb.SRAMMW)
	fmt.Fprintf(w, "  RISC-V       %8.2f mW\n", pb.RVMW)
	fmt.Fprintf(w, "  leakage      %8.2f mW\n", pb.LeakMW)
	fmt.Fprintf(w, "  total        %8.2f mW\n", pb.TotalMW)
}
