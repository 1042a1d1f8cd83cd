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
}

// NewNI builds a network interface for the given node with nVCs virtual
// channels. vcPick chooses the injection VC per packet (nil injects on 0).
func NewNI(clk *sim.Clock, name string, node, nVCs int, vcPick func(Packet) int) *NI {
	if vcPick == nil {
		vcPick = func(Packet) int { return 0 }
	}
	ni := &NI{
		PktIn:   connections.NewIn[Packet]().Owned(clk, name, "pkt_in"),
		PktOut:  connections.NewOut[Packet]().Owned(clk, name, "pkt_out"),
		FlitOut: make([]*connections.Out[Flit], nVCs),
		FlitIn:  make([]*connections.In[Flit], nVCs),
	}
	for v := 0; v < nVCs; v++ {
		ni.FlitOut[v] = connections.NewOut[Flit]().Owned(clk, name, fmt.Sprintf("flit_out[%d]", v))
		ni.FlitIn[v] = connections.NewIn[Flit]().Owned(clk, name, fmt.Sprintf("flit_in[%d]", v))
	}
	// Packet-to-flit conversion is data-dependent (flit count tracks the
	// payload length, the VC tracks vcPick), so the NI terminates any SDF
	// region the way the routers do.
	clk.Sim().Design().DeclareActor(name, sim.ActorSwitch, clk, sim.Rat{})
	clk.Spawn(name+".inject", func(th *sim.Thread) {
		for {
			p := ni.PktIn.Pop(th)
			if p.Src != node {
				panic(fmt.Sprintf("noc: packet src %d injected at node %d", p.Src, node))
			}
			vc := vcPick(p)
			for _, f := range p.Flits(vc) {
				ni.FlitOut[vc].Push(th, f)
				th.Wait()
			}
			ni.Injected++
		}
	})
	evs := make([]*sim.Event, nVCs) // eject's sensitivity, filled at its first edge
	clk.Spawn(name+".eject", func(th *sim.Thread) {
		acc := make([][]Flit, nVCs)
		// The per-VC scan below is a no-op when no input VC has a flit, so
		// the thread parks on flit arrival, sensitive to the input
		// channels' events — except when an input charges a per-attempt
		// handshake wait (ModeSignalAccurate), where skipping the failing
		// PopNB calls would change elapsed cycles. Modes and events are
		// read here, at the first edge, because ports are bound after NewNI.
		park := true
		for v := 0; v < nVCs; v++ {
			if ni.FlitIn[v].Mode() == connections.ModeSignalAccurate {
				park = false
			}
			evs[v] = ni.FlitIn[v].Event()
		}
		anyFlit := func() bool {
			for v := 0; v < nVCs; v++ {
				if ni.FlitIn[v].Ready() {
					return true
				}
			}
			return false
		}
		for {
			for v := 0; v < nVCs; v++ {
				f, ok := ni.FlitIn[v].PopNB(th)
				if !ok {
					continue
				}
				acc[v] = append(acc[v], f)
				if f.Tail {
					flits := acc[v]
					acc[v] = flits[:0] // the packet below copies what it keeps
					p := Packet{Src: flits[0].Src, Dst: flits[0].Dst, ID: flits[0].PktID}
					for _, b := range flits[1:] {
						p.Payload = append(p.Payload, b.Data)
					}
					if p.Dst != node {
						panic(fmt.Sprintf("noc: packet for %d ejected at node %d", p.Dst, node))
					}
					ni.PktOut.Push(th, p)
					ni.Ejected++
				}
			}
			if park {
				th.WaitOn(anyFlit, evs...)
			} else {
				th.Wait()
			}
		}
	})
	clk.Sim().Component(name).Source(func(emit stats.Emit) {
		emit("packets_injected", float64(ni.Injected))
		emit("packets_ejected", float64(ni.Ejected))
	})
	return ni
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
		r := NewWHVCRouter(clk, fmt.Sprintf("%s.r%d", name, i), 5, vcs, XYRoute(w, x, y), nil)
		m.Routers = append(m.Routers, r)
		ni := NewNI(clk, fmt.Sprintf("%s.ni%d", name, i), i, vcs, func(p Packet) int { return int(p.ID) % vcs })
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

// Ring is a unidirectional ring of wormhole routers. Packets inject on
// VC 0 and are remapped to VC 1 when they cross the dateline (the wrap
// link out of node N-1), which breaks the channel-dependency cycle.
type Ring struct {
	N       int
	Routers []*WHVCRouter
	NIs     []*NI
	Inject  []*connections.Out[Packet]
	Eject   []*connections.In[Packet]
}

// Ring port conventions: 0 = local, 1 = forward neighbour.
const (
	RingLocal   = 0
	RingForward = 1
)

// BuildRing constructs an n-node dateline ring with 2 VCs.
func BuildRing(clk *sim.Clock, name string, n, depth int, opts ...connections.Option) *Ring {
	rg := &Ring{N: n}
	const vcs = 2
	for i := 0; i < n; i++ {
		i := i
		route := func(dst int) int {
			if dst == i {
				return RingLocal
			}
			return RingForward
		}
		var vcMap VCMapFunc
		if i == n-1 {
			vcMap = func(outPort, vc int) int {
				if outPort == RingForward {
					return 1 // crossing the dateline
				}
				return vc
			}
		}
		r := NewWHVCRouter(clk, fmt.Sprintf("%s.r%d", name, i), 2, vcs, route, vcMap)
		rg.Routers = append(rg.Routers, r)
		ni := NewNI(clk, fmt.Sprintf("%s.ni%d", name, i), i, vcs, nil)
		rg.NIs = append(rg.NIs, ni)
		linkPorts(clk, fmt.Sprintf("%s.l%d.in", name, i), depth, ni.FlitOut, r.In[RingLocal], opts...)
		linkPorts(clk, fmt.Sprintf("%s.l%d.out", name, i), depth, r.Out[RingLocal], ni.FlitIn, opts...)
		ep := fmt.Sprintf("%s.ep%d", name, i)
		inj := connections.NewOut[Packet]().Owned(clk, ep, "inject")
		ej := connections.NewIn[Packet]().Owned(clk, ep, "eject")
		connections.Buffer(clk, fmt.Sprintf("%s.inj%d", name, i), 2, inj, ni.PktIn, opts...)
		connections.Buffer(clk, fmt.Sprintf("%s.ej%d", name, i), 2, ni.PktOut, ej, opts...)
		rg.Inject = append(rg.Inject, inj)
		rg.Eject = append(rg.Eject, ej)
	}
	for i := 0; i < n; i++ {
		linkPorts(clk, fmt.Sprintf("%s.lnk%d", name, i), depth,
			rg.Routers[i].Out[RingForward], rg.Routers[(i+1)%n].In[RingForward], opts...)
	}
	return rg
}
