package noc

import (
	"fmt"

	"repro/internal/connections"
	"repro/internal/matchlib"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WHVCRouter is the wormhole router with virtual channels from Table 2.
// Every physical port is modelled as one latency-insensitive channel per
// virtual channel — the credit-based per-VC buffering of the hardware
// link — so a VC blocked downstream never blocks its siblings. A head
// flit arbitrates for an output VC and, once granted, owns it until its
// tail flit passes (wormhole switching); output VCs interleave freely on
// a port, which is what makes dateline rings deadlock-free.
type WHVCRouter struct {
	In  [][]*connections.In[Flit]  // [port][vc]
	Out [][]*connections.Out[Flit] // [port][vc]

	Stats RouterStats

	nPorts, nVCs int
	lock         [][]outLock         // [outPort][vcOut]
	arbs         []*matchlib.Arbiter // [outPort] over inPort*nVCs requesters
	route        RouteFunc
	vcMap        VCMapFunc

	// run's per-edge scratch, [port*vc], allocated with the router so
	// the thread allocates nothing when it starts: the input heads peeked
	// this edge and the input channels' events (filled at the first edge,
	// once the ports are bound).
	heads []Flit
	inEvs []*sim.Event

	name string
	clk  *sim.Clock
	sub  *trace.Subject // armed handshake tracing; nil when disarmed
}

type outLock struct {
	active bool
	inPort int
	vc     int // input VC that owns this output VC
}

// NewWHVCRouter builds a router with nPorts ports and nVCs virtual
// channels per port. route maps destinations to output ports; vcMap may
// be nil (identity). VC buffering depth is set by the channels bound to
// the ports.
func NewWHVCRouter(clk *sim.Clock, name string, nPorts, nVCs int, route RouteFunc, vcMap VCMapFunc) *WHVCRouter {
	if nPorts < 1 || nVCs < 1 || nPorts*nVCs > 64 {
		panic(fmt.Sprintf("noc: router geometry %d ports × %d VCs unsupported", nPorts, nVCs))
	}
	if vcMap == nil {
		vcMap = func(outPort, vc int) int { return vc }
	}
	r := &WHVCRouter{
		In:     make([][]*connections.In[Flit], nPorts),
		Out:    make([][]*connections.Out[Flit], nPorts),
		nPorts: nPorts,
		nVCs:   nVCs,
		lock:   make([][]outLock, nPorts),
		arbs:   make([]*matchlib.Arbiter, nPorts),
		route:  route,
		vcMap:  vcMap,
		heads:  make([]Flit, nPorts*nVCs),
		inEvs:  make([]*sim.Event, 0, nPorts*nVCs),
		name:   name,
		clk:    clk,
		sub:    clk.Sim().Tracer().Subject(name),
	}
	// A router moves flits data-dependently — which output a flit takes is
	// a function of its destination — so the rate analysis must not write
	// balance equations across it. Registering it as a switch actor breaks
	// the SDF region here on purpose.
	clk.Sim().Design().DeclareActor(name, sim.ActorSwitch, clk, sim.Rat{})
	for i := 0; i < nPorts; i++ {
		r.In[i] = make([]*connections.In[Flit], nVCs)
		r.Out[i] = make([]*connections.Out[Flit], nVCs)
		for v := 0; v < nVCs; v++ {
			r.In[i][v] = connections.NewIn[Flit]().Owned(clk, name, fmt.Sprintf("in[%d][%d]", i, v))
			r.Out[i][v] = connections.NewOut[Flit]().Owned(clk, name, fmt.Sprintf("out[%d][%d]", i, v))
		}
		r.lock[i] = make([]outLock, nVCs)
		r.arbs[i] = matchlib.NewArbiter(nPorts * nVCs)
	}
	clk.Spawn(name+".whvc", func(th *sim.Thread) { r.run(th) })
	clk.Sim().Component(name).Source(r.Stats.emit)
	return r
}

// DeclareSplit records the expected fraction of this router's output
// traffic leaving through port (num/den). The ratio is advisory: the
// rate analysis reports it beside the port's channels but never uses it
// to tighten a throughput bound, because measured traffic under a
// hotspot pattern may concentrate entirely on one port.
func (r *WHVCRouter) DeclareSplit(port int, num, den int64) *WHVCRouter {
	if port < 0 || port >= r.nPorts {
		panic(fmt.Sprintf("noc: split port %d out of range [0,%d)", port, r.nPorts))
	}
	r.clk.Sim().Design().DeclareSplit(r.name, fmt.Sprintf("out[%d]", port), sim.NewRat(num, den))
	return r
}

func (r *WHVCRouter) run(th *sim.Thread) {
	// With every input VC empty the loop body below is a no-op (req stays
	// zero for every output, so neither the arbiter state nor the counters are
	// touched), so the thread parks until a flit is peekable: on the input
	// channels' events, which notify whenever a head can appear. Peek never
	// charges a wait in any cost model, making this safe even under
	// ModeSignalAccurate.
	for i := range r.In {
		for _, in := range r.In[i] {
			r.inEvs = append(r.inEvs, in.Event())
		}
	}
	anyInput := func() bool {
		for i := 0; i < r.nPorts; i++ {
			for v := 0; v < r.nVCs; v++ {
				if _, ok := r.In[i][v].Peek(); ok {
					return true
				}
			}
		}
		return false
	}
	// heads[i*nVCs+v] is the head flit of input VC (i, v) wherever bit
	// i*nVCs+v of have is set, as peeked on cycle seen. The heads are
	// peeked once per edge rather than once per output: forward pops at
	// most one flit per input port, and used excludes that port from the
	// outputs after it, so the rest of the snapshot is what Peek would
	// return. The snapshot is retaken whenever the cycle has changed: at
	// the first output of every edge, and after a port operation that
	// charged a Wait (ModeSignalAccurate).
	var have, seen uint64
	snapshot := func() {
		have, seen = 0, th.Cycle()
		for i := 0; i < r.nPorts; i++ {
			for v := 0; v < r.nVCs; v++ {
				k := i*r.nVCs + v
				if f, ok := r.In[i][v].Peek(); ok {
					r.heads[k] = f
					have |= 1 << uint(k)
				}
			}
		}
	}
	for {
		// Each output port sends at most one flit per cycle, chosen
		// round-robin among (a) input VCs that own one of its output VCs
		// and have a flit ready and (b) head flits requesting a free
		// output VC. Each input port also supplies at most one flit per
		// cycle (single crossbar input per port); used has bit i set once
		// input port i has.
		var used uint64
		for o := 0; o < r.nPorts; o++ {
			if th.Cycle() != seen {
				snapshot()
			}
			var req uint64
			for i := 0; i < r.nPorts; i++ {
				if used&(1<<uint(i)) != 0 {
					continue
				}
				for v := 0; v < r.nVCs; v++ {
					k := i*r.nVCs + v
					if have&(1<<uint(k)) == 0 {
						continue
					}
					f := &r.heads[k]
					vOut := r.vcMap(o, v)
					lk := r.lock[o][vOut]
					if f.Head {
						if r.route(f.Dst) == o && !lk.active {
							req |= 1 << uint(k)
						}
					} else if lk.active && lk.inPort == i && lk.vc == v {
						req |= 1 << uint(k)
					}
				}
			}
			if req == 0 {
				continue
			}
			g := r.arbs[o].Pick(req)
			if g < 0 {
				continue
			}
			if r.forward(th, o, g/r.nVCs, g%r.nVCs, r.heads[g]) {
				used |= 1 << uint(g/r.nVCs)
			}
		}
		th.WaitOn(anyInput, r.inEvs...)
	}
}

// forward offers f, the head of In[i][v], to output o; on acceptance it
// retires the flit, acquiring the output VC at the head and releasing it
// at the tail. It reports whether a flit moved.
func (r *WHVCRouter) forward(th *sim.Thread, o, i, v int, f Flit) bool {
	vOut := r.vcMap(o, v)
	f.VC = vOut
	if !r.Out[o][vOut].PushNB(th, f) {
		r.Stats.Stalls++
		if r.sub != nil {
			// Router-level back-pressure: the crossbar had a flit for
			// output o but the downstream VC buffer refused it.
			r.sub.Emit(trace.KindFull, uint64(r.clk.Now()), r.clk.Cycle(), uint64(o))
		}
		return false
	}
	if _, ok := r.In[i][v].PopNB(th); !ok {
		panic("noc: peeked flit vanished before pop")
	}
	r.Stats.FlitsIn++
	r.Stats.FlitsOut++
	if f.Head {
		r.Stats.PacketsIn++
	}
	switch {
	case f.Tail:
		r.lock[o][vOut] = outLock{}
	case f.Head:
		r.lock[o][vOut] = outLock{active: true, inPort: i, vc: v}
	}
	return true
}
