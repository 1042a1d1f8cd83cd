package noc

import (
	"fmt"

	"repro/internal/connections"
	"repro/internal/sim"
	"repro/internal/stats"
)

// NI is a network interface: it serializes injected packets into flits
// toward its router's local port and reassembles ejected flit streams
// back into packets. Like the router ports, its flit ports are one
// channel per virtual channel; reassembly is keyed by VC, which is sound
// because wormhole locking keeps packets contiguous within a VC.
type NI struct {
	PktIn   *connections.In[Packet] // user → network
	PktOut  *connections.Out[Packet]
	FlitOut []*connections.Out[Flit] // [vc] NI → router local input
	FlitIn  []*connections.In[Flit]  // [vc] router local output → NI

	Injected, Ejected uint64

	node   int
	vcPick func(Packet) int

	// inject's place between edges: the flits of the packet it is
	// serializing on VC vc (none between packets; the backing array is
	// reused) and the index of the next one to push.
	flits    []Flit
	vc, sent int

	// eject's place between edges: acc[v] reassembles VC v's packet;
	// held, while holding is set, is a packet PktOut refused, and the
	// scan goes on from VC resume once it is out.
	acc     [][]Flit
	held    Packet
	holding bool
	resume  int

	// eject's park at an idle end, built at its first edge once the
	// ports are bound: anyFlit holds when any FlitIn has a flit, and
	// flitEvs are their events.
	anyFlit func() bool
	flitEvs []*sim.Event
}

// NewNI builds a network interface for the given node with nVCs virtual
// channels. vcPick chooses the injection VC per packet. mode is the
// channels' port-operation cost model, which picks how
// connections.Method runs the inject and eject steps.
func NewNI(clk *sim.Clock, name string, node, nVCs int, vcPick func(Packet) int, mode connections.Mode) *NI {
	ni := &NI{
		PktIn:   connections.NewIn[Packet]().Owned(clk, name, "pkt_in"),
		PktOut:  connections.NewOut[Packet]().Owned(clk, name, "pkt_out"),
		FlitOut: make([]*connections.Out[Flit], nVCs),
		FlitIn:  make([]*connections.In[Flit], nVCs),
		node:    node,
		vcPick:  vcPick,
		acc:     make([][]Flit, nVCs),
	}
	for v := 0; v < nVCs; v++ {
		ni.FlitOut[v] = connections.NewOut[Flit]().Owned(clk, name, fmt.Sprintf("flit_out[%d]", v))
		ni.FlitIn[v] = connections.NewIn[Flit]().Owned(clk, name, fmt.Sprintf("flit_in[%d]", v))
	}
	// Packet-to-flit conversion is data-dependent (flit count tracks the
	// payload length, the VC tracks vcPick), so the NI terminates any SDF
	// region the way the routers do.
	clk.Sim().Design().DeclareActor(name, sim.ActorSwitch, clk, sim.Rat{})
	connections.Method(clk, name+".inject", mode, ni.inject)
	connections.Method(clk, name+".eject", mode, ni.eject)
	clk.Sim().Metrics().Source(name, func(emit stats.Emit) {
		emit("packets_injected", float64(ni.Injected))
		emit("packets_ejected", float64(ni.Ejected))
	})
	return ni
}

// inject is one step of the injection loop "Pop a packet, Push its flits
// one per edge, count it": it pushes at most one flit. A packet counts
// as injected on the edge after its last flit's push, where the loop's
// Wait after that flit returns.
func (ni *NI) inject(th *sim.Thread) {
	if len(ni.flits) > 0 && ni.sent == len(ni.flits) {
		ni.Injected++
		ni.flits = ni.flits[:0]
	}
	if len(ni.flits) == 0 {
		p, ok := ni.PktIn.PopNB(th)
		if !ok {
			ni.PktIn.Park(th)
			return
		}
		if p.Src != ni.node {
			panic(fmt.Sprintf("noc: packet src %d injected at node %d", p.Src, ni.node))
		}
		ni.vc = ni.vcPick(p)
		ni.flits, ni.sent = p.appendFlits(ni.flits, ni.vc), 0
	}
	if out := ni.FlitOut[ni.vc]; !out.PushNB(th, ni.flits[ni.sent]) {
		out.Park(th)
		return
	}
	ni.sent++
	th.WaitN(1)
}

// eject is one pass of the ejection loop: it takes at most one flit from
// each input VC, in VC order, and pushes every packet a tail completes
// to PktOut. A refused packet is held, and the next step pushes it again
// before the scan goes on from the VC after its own. A finished scan
// parks until a flit arrives, on the input channels' events: the scan
// that would run before then finds every input VC empty and does
// nothing. Under ModeSignalAccurate it waits an edge instead, because
// there each failing PopNB of such a scan charges a Wait, and skipping
// them would change elapsed cycles.
func (ni *NI) eject(th *sim.Thread) {
	v := 0
	if ni.holding {
		if !ni.PktOut.PushNB(th, ni.held) {
			ni.PktOut.Park(th)
			return
		}
		ni.held, ni.holding = Packet{}, false
		ni.Ejected++
		v = ni.resume
	}
	for ; v < len(ni.FlitIn); v++ {
		f, ok := ni.FlitIn[v].PopNB(th)
		if !ok {
			continue
		}
		ni.acc[v] = append(ni.acc[v], f)
		if !f.Tail {
			continue
		}
		flits := ni.acc[v]
		ni.acc[v] = flits[:0] // the packet below copies what it keeps
		p := Packet{Src: flits[0].Src, Dst: flits[0].Dst, ID: flits[0].PktID}
		if len(flits) > 1 {
			p.Payload = make([]uint64, len(flits)-1)
			for i, b := range flits[1:] {
				p.Payload[i] = b.Data
			}
		}
		if p.Dst != ni.node {
			panic(fmt.Sprintf("noc: packet for %d ejected at node %d", p.Dst, ni.node))
		}
		if !ni.PktOut.PushNB(th, p) {
			ni.held, ni.holding, ni.resume = p, true, v+1
			ni.PktOut.Park(th)
			return
		}
		ni.Ejected++
	}
	if ni.FlitIn[0].Mode() == connections.ModeSignalAccurate {
		th.WaitN(1)
		return
	}
	if ni.anyFlit == nil {
		ni.anyFlit = func() bool {
			for _, in := range ni.FlitIn {
				if in.Ready() {
					return true
				}
			}
			return false
		}
		for _, in := range ni.FlitIn {
			ni.flitEvs = append(ni.flitEvs, in.Event())
		}
	}
	th.WaitOn(ni.anyFlit, ni.flitEvs...)
}

// Mesh port conventions.
const (
	PortLocal = 0
	PortNorth = 1
	PortEast  = 2
	PortSouth = 3
	PortWest  = 4
)

// Mesh is a W×H grid of wormhole routers with XY dimension-order routing
// (deadlock-free without extra VCs). Node n sits at (n%W, n/W).
type Mesh struct {
	W, H    int
	VCs     int
	Routers []*WHVCRouter
	NIs     []*NI

	// User-side endpoints, one per node.
	Inject []*connections.Out[Packet]
	Eject  []*connections.In[Packet]
}

// XYRoute returns the routing function for the router at (x, y).
func XYRoute(w, x, y int) RouteFunc {
	return func(dst int) int {
		dx, dy := dst%w, dst/w
		switch {
		case dx > x:
			return PortEast
		case dx < x:
			return PortWest
		case dy > y:
			return PortSouth
		case dy < y:
			return PortNorth
		default:
			return PortLocal
		}
	}
}

// linkPorts binds every VC channel of an output port to the matching VC
// of an input port with buffering depth per VC.
func linkPorts(clk *sim.Clock, name string, depth int, out []*connections.Out[Flit], in []*connections.In[Flit], opts ...connections.Option) {
	for v := range out {
		connections.Buffer(clk, fmt.Sprintf("%s.vc%d", name, v), depth, out[v], in[v], opts...)
	}
}

// terminatePort binds an edge router port pair to idle stub channels so
// the router can scan it safely; no traffic ever routes there.
func terminatePort(clk *sim.Clock, name string, out []*connections.Out[Flit], in []*connections.In[Flit]) {
	for v := range out {
		connections.Buffer(clk, fmt.Sprintf("%s.o%d", name, v), 1, out[v], connections.NewIn[Flit](), connections.Terminator())
		connections.Buffer(clk, fmt.Sprintf("%s.i%d", name, v), 1, connections.NewOut[Flit](), in[v], connections.Terminator())
	}
}

// BuildMesh constructs the W×H WHVC mesh with the given VC count, per-VC
// buffer depth and link channel options (mode, stalls, latency).
func BuildMesh(clk *sim.Clock, name string, w, h, vcs, depth int, opts ...connections.Option) *Mesh {
	m := &Mesh{W: w, H: h, VCs: vcs}
	n := w * h
	for i := 0; i < n; i++ {
		x, y := i%w, i/w
		r := NewWHVCRouter(clk, fmt.Sprintf("%s.r%d", name, i), 5, vcs, XYRoute(w, x, y), connections.ModeOf(opts...))
		m.Routers = append(m.Routers, r)
		ni := NewNI(clk, fmt.Sprintf("%s.ni%d", name, i), i, vcs, func(p Packet) int { return int(p.ID) % vcs }, connections.ModeOf(opts...))
		m.NIs = append(m.NIs, ni)

		linkPorts(clk, fmt.Sprintf("%s.l%d.in", name, i), depth, ni.FlitOut, r.In[PortLocal], opts...)
		linkPorts(clk, fmt.Sprintf("%s.l%d.out", name, i), depth, r.Out[PortLocal], ni.FlitIn, opts...)

		// The user-side endpoints belong to the mesh's per-node harness
		// interface; declaring them keeps the inject/eject channels fully
		// owned in the design graph.
		ep := fmt.Sprintf("%s.ep%d", name, i)
		inj := connections.NewOut[Packet]().Owned(clk, ep, "inject")
		ej := connections.NewIn[Packet]().Owned(clk, ep, "eject")
		connections.Buffer(clk, fmt.Sprintf("%s.inj%d", name, i), 2, inj, ni.PktIn, opts...)
		connections.Buffer(clk, fmt.Sprintf("%s.ej%d", name, i), 2, ni.PktOut, ej, opts...)
		m.Inject = append(m.Inject, inj)
		m.Eject = append(m.Eject, ej)
	}
	for i := 0; i < n; i++ {
		x, y := i%w, i/w
		if x+1 < w {
			linkPorts(clk, fmt.Sprintf("%s.lnk%d.e", name, i), depth, m.Routers[i].Out[PortEast], m.Routers[i+1].In[PortWest], opts...)
			linkPorts(clk, fmt.Sprintf("%s.lnk%d.w", name, i+1), depth, m.Routers[i+1].Out[PortWest], m.Routers[i].In[PortEast], opts...)
		} else {
			terminatePort(clk, fmt.Sprintf("%s.term%d.e", name, i), m.Routers[i].Out[PortEast], m.Routers[i].In[PortEast])
		}
		if y+1 < h {
			linkPorts(clk, fmt.Sprintf("%s.lnk%d.s", name, i), depth, m.Routers[i].Out[PortSouth], m.Routers[i+w].In[PortNorth], opts...)
			linkPorts(clk, fmt.Sprintf("%s.lnk%d.n", name, i+w), depth, m.Routers[i+w].Out[PortNorth], m.Routers[i].In[PortSouth], opts...)
		} else {
			terminatePort(clk, fmt.Sprintf("%s.term%d.s", name, i), m.Routers[i].Out[PortSouth], m.Routers[i].In[PortSouth])
		}
		if x == 0 {
			terminatePort(clk, fmt.Sprintf("%s.term%d.w", name, i), m.Routers[i].Out[PortWest], m.Routers[i].In[PortWest])
		}
		if y == 0 {
			terminatePort(clk, fmt.Sprintf("%s.term%d.n", name, i), m.Routers[i].Out[PortNorth], m.Routers[i].In[PortNorth])
		}
	}
	return m
}
