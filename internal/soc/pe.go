package soc

import (
	"fmt"
	"sync"

	"repro/internal/connections"
	"repro/internal/hls"
	"repro/internal/matchlib"
	"repro/internal/matchlib/float"
	"repro/internal/noc"
	"repro/internal/rtl"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synth"
)

// PE is one processing element of the spatial array: a scratchpad memory,
// a vector datapath built from the MatchLib Vector and Float components,
// a control unit executing configured kernels, and the router interface.
// It is a MemNode whose exec hook runs the kernel engine.
type PE struct {
	*MemNode
	lanes   int
	mode    connections.Mode
	gateSim *rtl.Simulator // shadow gate-level datapath (RTL cosim)
}

// rtlPipeFill is the extra datapath pipeline-fill latency charged per
// kernel in RTL-cosim mode (HLS-generated RTL has real pipe stages the
// loosely-timed model does not).
const rtlPipeFill = 4

// shadowNetlist is the gate-level MAC datapath lane shared by all PEs in
// shadow-cosimulation mode: a 32-bit multiply-accumulate compiled through
// the HLS flow and mapped to standard cells.
var (
	shadowOnce sync.Once
	shadowNl   *rtl.Netlist
)

func shadowNetlist() *rtl.Netlist {
	shadowOnce.Do(func() {
		_, shadowNl = synth.Compile(hls.MACDesign(32), hls.DefaultConstraints())
	})
	return shadowNl
}

// newPE builds a PE node with the given scratchpad size in words and
// vector width.
func newPE(clk *sim.Clock, name string, id, scratchWords, lanes int, mode connections.Mode, shadow bool,
	inject *connections.Out[noc.Packet], eject *connections.In[noc.Packet]) *PE {
	pe := &PE{lanes: lanes, mode: mode}
	pe.MemNode = newMemNode(clk, name, id, scratchWords, lanes, inject, eject)
	pe.MemNode.exec = pe.runKernel
	if shadow && mode == connections.ModeRTLCosim {
		// RTL cosimulation evaluates the PE's datapath netlists every
		// clock edge, whether or not useful work flows through them.
		// Two of the vector unit's MAC lanes are cosimulated at gate
		// level (a 4× sampling of the 8-lane datapath, documented in
		// EXPERIMENTS.md); each lane is an independent netlist instance
		// stepped on the word-slice fast path, since this per-edge hook
		// is the SoC's gate-level hot loop.
		lane0, err := rtl.NewSimulator(shadowNetlist())
		if err != nil {
			panic("soc: shadow MAC netlist rejected: " + err.Error())
		}
		lane1, err := rtl.NewSimulator(shadowNetlist())
		if err != nil {
			panic("soc: shadow MAC netlist rejected: " + err.Error())
		}
		ia := portIndex(lane0.InputPorts(), "a")
		ib := portIndex(lane0.InputPorts(), "b")
		iacc := portIndex(lane0.InputPorts(), "acc")
		var tick uint64
		in0 := make([]uint64, len(lane0.InputPorts()))
		in1 := make([]uint64, len(lane1.InputPorts()))
		clk.AtCommitNamed(name+"/shadow_mac", func() {
			tick++
			in0[ia] = tick * 0x9e3779b9
			in0[ib] = tick ^ uint64(id)<<16
			in0[iacc] = tick << 7
			lane0.StepWords(in0, nil)
			in1[ia] = tick * 0x85ebca6b
			in1[ib] = tick<<3 ^ uint64(id)
			in1[iacc] = tick * 31
			lane1.StepWords(in1, nil)
		})
		pe.gateSim = lane0
	}
	clk.Sim().Metrics().Source(name, func(emit stats.Emit) {
		emit("gate_toggles", float64(pe.GateToggles()))
	})
	return pe
}

// portIndex finds a named port in a simulator's sorted port order.
func portIndex(ports []rtl.Port, name string) int {
	for i := range ports {
		if ports[i].Name == name {
			return i
		}
	}
	panic("soc: shadow netlist missing port " + name)
}

// GateToggles returns the shadow netlist's switching activity (shadow
// cosimulation mode only) — input to the power model.
func (pe *PE) GateToggles() uint64 {
	if pe.gateSim == nil {
		return 0
	}
	return pe.gateSim.Toggles
}

// word/int32 conversions: scratchpad words hold int32 lane values.
func w2i(w uint64) int32 { return int32(uint32(w)) }
func i2w(v int32) uint64 { return uint64(uint32(v)) }

func (pe *PE) loadVec(addr, n int) matchlib.Vector[int32] {
	v := matchlib.NewVector[int32](n)
	for i := range v {
		v[i] = w2i(pe.Mem.Read(addr + i))
	}
	return v
}

func (pe *PE) storeVec(addr int, v matchlib.Vector[int32]) {
	for i, x := range v {
		pe.Mem.Write(addr+i, i2w(x))
	}
}

// vcycles charges the vector-unit time for processing n elements.
func (pe *PE) vcycles(th *sim.Thread, n int) {
	th.WaitN((n + pe.lanes - 1) / pe.lanes)
}

// runKernel decodes and executes one kernel configuration. Two cycles of
// control decode are charged, plus pipeline fill in RTL-cosim mode.
func (pe *PE) runKernel(th *sim.Thread, d decoded) {
	th.WaitN(2)
	if pe.mode == connections.ModeRTLCosim {
		th.WaitN(rtlPipeFill)
	}
	switch d.op {
	case KVecAdd:
		pe.storeVec(d.c, pe.loadVec(d.a, d.n).Add(pe.loadVec(d.b, d.n)))
		pe.vcycles(th, d.n)
	case KVecMul:
		pe.storeVec(d.c, pe.loadVec(d.a, d.n).Mul(pe.loadVec(d.b, d.n)))
		pe.vcycles(th, d.n)
	case KMac:
		acc := pe.loadVec(d.c, d.n)
		pe.storeVec(d.c, pe.loadVec(d.a, d.n).Mac(pe.loadVec(d.b, d.n), acc))
		pe.vcycles(th, d.n)
	case KDot:
		pe.Mem.Write(d.c, i2w(pe.loadVec(d.a, d.n).Dot(pe.loadVec(d.b, d.n))))
		pe.vcycles(th, d.n)
	case KReduce:
		pe.Mem.Write(d.c, i2w(pe.loadVec(d.a, d.n).Reduce()))
		pe.vcycles(th, d.n)
	case KMaxPool:
		// C[i] = max over window i of size m.
		for i := 0; i < d.n; i++ {
			pe.Mem.Write(d.c+i, i2w(pe.loadVec(d.a+i*d.m, d.m).Max()))
		}
		pe.vcycles(th, d.n*d.m)
	case KDist2:
		// C[j] = squared distance from point A (m dims) to centroid j.
		point := pe.loadVec(d.a, d.m)
		for j := 0; j < d.n; j++ {
			diff := point.Sub(pe.loadVec(d.b+j*d.m, d.m))
			pe.Mem.Write(d.c+j, i2w(diff.Dot(diff)))
		}
		pe.vcycles(th, d.n*d.m)
	case KArgMin:
		pe.Mem.Write(d.c, i2w(int32(pe.loadVec(d.a, d.n).ArgMin())))
		pe.vcycles(th, d.n)
	case KConv1D:
		// C[i] = Σ_t A[i+t] · B[t] for i in [0, n), taps m.
		taps := pe.loadVec(d.b, d.m)
		for i := 0; i < d.n; i++ {
			pe.Mem.Write(d.c+i, i2w(pe.loadVec(d.a+i, d.m).Dot(taps)))
		}
		pe.vcycles(th, d.n*d.m)
	case KDotF16:
		// IEEE binary16 dot product through the MatchLib Float functions.
		f := float.Binary16
		acc := uint64(0)
		for i := 0; i < d.n; i++ {
			a := pe.Mem.Read(d.a+i) & 0xffff
			b := pe.Mem.Read(d.b+i) & 0xffff
			acc = f.MulAdd(a, b, acc)
		}
		pe.Mem.Write(d.c, acc)
		pe.vcycles(th, d.n)
	default:
		panic(fmt.Sprintf("soc: PE %d: unknown kernel op %d", pe.ID, d.op))
	}
}
