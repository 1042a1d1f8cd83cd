package soc

import (
	"fmt"

	"repro/internal/axi"
	"repro/internal/connections"
	"repro/internal/gals"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Node identifiers on the 4×5 mesh: PEs fill rows 0-3, the bottom row
// holds the two global-memory halves, the RISC-V controller, and I/O.
const (
	NumPEs   = 16
	NodeGML  = 16
	NodeGMR  = 17
	NodeRV   = 18
	NodeIO   = 19
	NumNodes = 20

	MeshW = 4
	MeshH = 5
)

// Testchip sizing, fixed for every build.
const (
	vecLanes     = 8       // PE vector width
	scratchWords = 4096    // PE scratchpad size
	gmWords      = 1 << 16 // words per global-memory half
	ramWords     = 1 << 14 // RISC-V local RAM words
	linkDepth    = 4       // per-VC link buffering
	numVCs       = 2
	clockPS      = sim.Time(909) // nominal partition clock period: 1.1 GHz signoff
)

// Config parameterizes a SoC build: channel model, clocking, stall
// injection and observation. The chip's sizing is fixed by the
// testchip constants above.
type Config struct {
	Mode      connections.Mode
	GALS      bool    // one local clock generator per partition
	StallP    float64 // verification stall injection probability
	StallSeed int64

	// Trace arms channel-level handshake tracing for the whole chip:
	// every LI channel, router, and pausible CDC FIFO records push/pop
	// and valid/ready/occupancy events into a per-simulator recorder
	// (see SoC.Tracer). Off by default — the disarmed path is a single
	// nil check per port operation.
	Trace bool

	// ShadowNetlists attaches a gate-level model of each PE's MAC
	// datapath lane, evaluated through the rtl simulator every cycle in
	// ModeRTLCosim — the cost that makes RTL cosimulation wall-clock
	// realistic (Figure 6's speedup axis). Off by default to keep
	// functional tests fast.
	ShadowNetlists bool
}

// DefaultConfig returns the testchip-like configuration.
func DefaultConfig() Config {
	return Config{Mode: connections.ModeSimAccurate}
}

// SoC is a built prototype chip.
type SoC struct {
	Sim *sim.Simulator
	Cfg Config

	Clks  []*sim.Clock // one per node in GALS mode, else a single entry
	RVClk *sim.Clock

	PEs []*PE
	GML *MemNode
	GMR *MemNode
	IO  *MemNode
	RV  *RVNode

	Routers []*noc.WHVCRouter
	Pauses  func() uint64 // total pausible-FIFO pauses (GALS mode)

	power *PowerBreakdown // latest published estimate; nil before one
}

// Tracer returns the armed handshake-event recorder, or nil when the
// SoC was built with Config.Trace false. After Run, feed it to
// Recorder.WriteVCD for waveforms or Recorder.Analyze for the
// backpressure/deadlock report.
func (s *SoC) Tracer() *trace.Recorder { return s.Sim.Tracer() }

// New builds the SoC and loads the firmware into the controller.
func New(cfg Config, firmware []uint32) *SoC {
	s := &SoC{Sim: sim.New(), Cfg: cfg}
	if cfg.Trace {
		// Components capture their trace subject at construction, so the
		// recorder must be armed before anything below is built.
		s.Sim.Arm(trace.NewRecorder())
	}
	var pauses []*gals.PausibleBisyncFIFO[noc.Flit]

	// Clocks: fine-grained GALS gives every partition its own generator
	// with a slightly different free-running period and phase, exactly
	// the asynchrony the pausible interfaces must absorb.
	clockOf := make([]*sim.Clock, NumNodes)
	if cfg.GALS {
		for i := 0; i < NumNodes; i++ {
			period := clockPS + sim.Time(i%7) // independent generators drift
			phase := sim.Time((i * 131) % int(clockPS))
			c := s.Sim.AddClock(fmt.Sprintf("clk%d", i), period, phase)
			clockOf[i] = c
			s.Clks = append(s.Clks, c)
		}
	} else {
		c := s.Sim.AddClock("clk", clockPS, 0)
		s.Clks = []*sim.Clock{c}
		for i := range clockOf {
			clockOf[i] = c
		}
	}
	s.RVClk = clockOf[NodeRV]

	// Partition boundaries for the design-rule checker: each node is one
	// clock partition, so lint can report which partitions a CDC hazard
	// straddles.
	for i := 0; i < NumNodes; i++ {
		s.Sim.Design().MarkPartition("soc/"+nodeName(i), clockOf[i])
	}

	var opts []connections.Option
	opts = append(opts, connections.WithMode(cfg.Mode))
	if cfg.StallP > 0 {
		opts = append(opts, connections.WithStall(cfg.StallP, cfg.StallSeed))
	}

	// Routers and NIs, one per node, on the node's clock. Components use
	// the repo-wide hierarchical path scheme (soc/noc/r[3]).
	nis := make([]*noc.NI, NumNodes)
	for i := 0; i < NumNodes; i++ {
		clk := clockOf[i]
		x, y := i%MeshW, i/MeshW
		r := noc.NewWHVCRouter(clk, fmt.Sprintf("soc/noc/r[%d]", i), 5, numVCs, noc.XYRoute(MeshW, x, y), cfg.Mode)
		s.Routers = append(s.Routers, r)
		// VC selection pins each (src,dst) flow to one VC so that DMA
		// chunk streams stay ordered end to end; different flows still
		// spread across VCs.
		ni := noc.NewNI(clk, fmt.Sprintf("soc/noc/ni[%d]", i), i, numVCs, func(p noc.Packet) int { return (p.Src + p.Dst) % numVCs }, cfg.Mode)
		nis[i] = ni
		linkSame(clk, fmt.Sprintf("soc/noc/l[%d]/in", i), linkDepth, ni.FlitOut, r.In[noc.PortLocal], opts)
		linkSame(clk, fmt.Sprintf("soc/noc/l[%d]/out", i), linkDepth, r.Out[noc.PortLocal], ni.FlitIn, opts)
	}

	// Inter-router links: same-clock buffers or pausible CDC pairs.
	link := func(i, pi, j, pj int) {
		name := fmt.Sprintf("soc/noc/lnk[%d.%d-%d.%d]", i, pi, j, pj)
		if clockOf[i] == clockOf[j] {
			linkSame(clockOf[i], name, linkDepth, s.Routers[i].Out[pi], s.Routers[j].In[pj], opts)
			return
		}
		for v := 0; v < numVCs; v++ {
			f := cdcLink(s.Sim, fmt.Sprintf("%s/vc[%d]", name, v), clockOf[i], clockOf[j], cfg.Mode,
				s.Routers[i].Out[pi][v], s.Routers[j].In[pj][v], linkDepth, opts)
			pauses = append(pauses, f)
		}
	}
	for i := 0; i < NumNodes; i++ {
		x, y := i%MeshW, i/MeshW
		if x+1 < MeshW {
			link(i, noc.PortEast, i+1, noc.PortWest)
			link(i+1, noc.PortWest, i, noc.PortEast)
		} else {
			terminate(clockOf[i], fmt.Sprintf("soc/noc/term[%d]/e", i), s.Routers[i].Out[noc.PortEast], s.Routers[i].In[noc.PortEast])
		}
		if y+1 < MeshH {
			link(i, noc.PortSouth, i+MeshW, noc.PortNorth)
			link(i+MeshW, noc.PortNorth, i, noc.PortSouth)
		} else {
			terminate(clockOf[i], fmt.Sprintf("soc/noc/term[%d]/s", i), s.Routers[i].Out[noc.PortSouth], s.Routers[i].In[noc.PortSouth])
		}
		if x == 0 {
			terminate(clockOf[i], fmt.Sprintf("soc/noc/term[%d]/w", i), s.Routers[i].Out[noc.PortWest], s.Routers[i].In[noc.PortWest])
		}
		if y == 0 {
			terminate(clockOf[i], fmt.Sprintf("soc/noc/term[%d]/n", i), s.Routers[i].Out[noc.PortNorth], s.Routers[i].In[noc.PortNorth])
		}
	}

	// Node engines behind the NIs, registered under soc/<node>.
	endpoints := func(i int) (*connections.Out[noc.Packet], *connections.In[noc.Packet]) {
		clk := clockOf[i]
		base := "soc/" + nodeName(i)
		inj := connections.NewOut[noc.Packet]().Owned(clk, base, "inject")
		ej := connections.NewIn[noc.Packet]().Owned(clk, base, "eject")
		// Nodes issue and absorb traffic on program-driven schedules, so
		// like the routers they bound any SDF region at their ports.
		clk.Sim().Design().DeclareActor(base, sim.ActorSwitch, clk, sim.Rat{})
		connections.Buffer(clk, base+"/inject", 2, inj, nis[i].PktIn, opts...)
		connections.Buffer(clk, base+"/eject", 2, nis[i].PktOut, ej, opts...)
		return inj, ej
	}
	for i := 0; i < NumPEs; i++ {
		inj, ej := endpoints(i)
		s.PEs = append(s.PEs, newPE(clockOf[i], fmt.Sprintf("soc/pe[%d]", i), i, scratchWords, vecLanes, cfg.Mode, cfg.ShadowNetlists, inj, ej))
	}
	{
		inj, ej := endpoints(NodeGML)
		s.GML = newMemNode(clockOf[NodeGML], "soc/gml", NodeGML, gmWords, 8, inj, ej)
	}
	{
		inj, ej := endpoints(NodeGMR)
		s.GMR = newMemNode(clockOf[NodeGMR], "soc/gmr", NodeGMR, gmWords, 8, inj, ej)
	}
	{
		inj, ej := endpoints(NodeIO)
		s.IO = newMemNode(clockOf[NodeIO], "soc/io", NodeIO, gmWords/4, 4, inj, ej)
	}
	{
		inj, ej := endpoints(NodeRV)
		s.RV = newRVNode(clockOf[NodeRV], "soc/rv", NodeRV, ramWords, firmware, inj, ej, cfg.Mode)
	}

	// The Figure 5 AXI bus: the controller reaches both global-memory
	// halves through an interconnect, a second (control-plane) port
	// into the same arrays the NoC data plane serves. The bus lives in
	// the RISC-V partition's clock domain.
	{
		clk := clockOf[NodeRV]
		ic := axi.NewInterconnect(clk, "soc/axi/bus", 1, []axi.Region{
			{Base: 0, Size: gmWords, Slave: 0},
			{Base: gmWords, Size: gmWords, Slave: 1},
		})
		axi.Connect(clk, "soc/axi/m0", 2, s.RV.axiPort(2*gmWords), ic.MasterPorts[0], opts...)
		sl := axi.NewMemSlaveBacked(clk, "soc/axi/gml", s.GML.Mem)
		sr := axi.NewMemSlaveBacked(clk, "soc/axi/gmr", s.GMR.Mem)
		axi.Connect(clk, "soc/axi/s0", 2, ic.SlavePorts[0], sl.Port, opts...)
		axi.Connect(clk, "soc/axi/s1", 2, ic.SlavePorts[1], sr.Port, opts...)
	}

	s.Pauses = func() uint64 {
		var t uint64
		for _, f := range pauses {
			t += f.Pauses
		}
		return t
	}
	return s
}

// Run executes until the firmware writes RegTestExit, maxCycles of the
// controller clock elapse, or the simulator is stopped. It returns
// elapsed controller cycles. A SoC runs once: Run closes the simulator,
// retiring its threads, and the final state stays readable.
func (s *SoC) Run(maxCycles uint64) (uint64, error) {
	defer s.Sim.Close()
	start := s.RVClk.Cycle()
	// The hart stops the simulator on the edge the firmware exits.
	s.Sim.RunCycles(s.RVClk, maxCycles)
	if err := s.Sim.Err(); err != nil {
		return s.RVClk.Cycle() - start, err
	}
	if !s.RV.Exited {
		return s.RVClk.Cycle() - start, fmt.Errorf("soc: firmware did not exit within %d cycles", maxCycles)
	}
	return s.RVClk.Cycle() - start, nil
}

// nodeName returns the node's component path segment under "soc".
func nodeName(i int) string {
	switch i {
	case NodeGML:
		return "gml"
	case NodeGMR:
		return "gmr"
	case NodeRV:
		return "rv"
	case NodeIO:
		return "io"
	default:
		return fmt.Sprintf("pe[%d]", i)
	}
}

// linkSame binds per-VC ports on one clock.
func linkSame(clk *sim.Clock, name string, depth int, out []*connections.Out[noc.Flit], in []*connections.In[noc.Flit], opts []connections.Option) {
	for v := range out {
		connections.Buffer(clk, fmt.Sprintf("%s/vc[%d]", name, v), depth, out[v], in[v], opts...)
	}
}

// terminate stubs an unused edge port.
func terminate(clk *sim.Clock, name string, out []*connections.Out[noc.Flit], in []*connections.In[noc.Flit]) {
	for v := range out {
		connections.Buffer(clk, fmt.Sprintf("%s/o[%d]", name, v), 1, out[v], connections.NewIn[noc.Flit](), connections.Terminator())
		connections.Buffer(clk, fmt.Sprintf("%s/i[%d]", name, v), 1, connections.NewOut[noc.Flit](), in[v], connections.Terminator())
	}
}

// cdcLink carries one VC of a link across clock domains through a
// pausible bisynchronous FIFO — the paper's asynchronous router-to-router
// interface. A relay on each side moves the flits: tx pops them from the
// clkA buffer and pushes them into the FIFO, rx pops them from the FIFO
// and pushes them into the clkB buffer, one flit per edge at most. Each
// relay is a step registered with connections.Method that holds its
// in-flight flit in the link and parks a failed port operation through
// its port or the FIFO, so it observes the cycles of the loop "Pop,
// Push, Wait" in every channel model.
func cdcLink(s *sim.Simulator, name string, clkA, clkB *sim.Clock, mode connections.Mode,
	out *connections.Out[noc.Flit], in *connections.In[noc.Flit], depth int, opts []connections.Option) *gals.PausibleBisyncFIFO[noc.Flit] {
	aIn := connections.NewIn[noc.Flit]().Owned(clkA, name, "tx")
	connections.Buffer(clkA, name+"/a", 2, out, aIn, opts...)
	fifo := gals.NewPausibleBisyncFIFO[noc.Flit](s, name, clkA, clkB, depth, 40)
	bOut := connections.NewOut[noc.Flit]().Owned(clkB, name, "rx")
	connections.Buffer(clkB, name+"/b", 2, bOut, in, opts...)

	var txFlit noc.Flit
	txHeld := false
	connections.Method(clkA, name+"/tx", mode, func(th *sim.Thread) {
		if !txHeld {
			f, ok := aIn.PopNB(th)
			if !ok {
				aIn.Park(th)
				return
			}
			txFlit, txHeld = f, true
		}
		if !fifo.PushNB(txFlit) {
			fifo.ParkPush(th)
			return
		}
		txHeld = false
		th.WaitN(1)
	})

	var rxFlit noc.Flit
	rxHeld := false
	connections.Method(clkB, name+"/rx", mode, func(th *sim.Thread) {
		if !rxHeld {
			f, ok := fifo.PopNB()
			if !ok {
				fifo.ParkPop(th)
				return
			}
			rxFlit, rxHeld = f, true
		}
		if !bOut.PushNB(th, rxFlit) {
			bOut.Park(th)
			return
		}
		rxHeld = false
		th.WaitN(1)
	})
	return fifo
}
