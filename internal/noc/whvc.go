package noc

import (
	"fmt"
	"math/bits"

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
// a port. A flit leaves on the VC it arrived on.
type WHVCRouter struct {
	In  [][]*connections.In[Flit]  // [port][vc]
	Out [][]*connections.Out[Flit] // [port][vc]

	Stats RouterStats

	nPorts, nVCs int
	lock         []outLock           // [outPort*nVCs+vc]
	arbs         []*matchlib.Arbiter // [outPort] over inPort*nVCs requesters
	route        RouteFunc

	// step's state, allocated with the router so that an edge allocates
	// nothing. ins is In flattened to [port*vc]; heads[k] is the head
	// flit of ins[k] wherever bit k of have is set, and outs[k] its
	// output port when it is a head flit. Bit k of marked is set when
	// ins[k]'s head may have changed since it was peeked: by its
	// channel's commit (In.Watch) or, at the first edge, for every input.
	// inEvs are the input channels' events (filled at the first edge,
	// once the ports are bound); ready is snapshot as the park predicate;
	// signal is set when the channels are signal-accurate and step runs
	// in a thread.
	ins    []*connections.In[Flit]
	heads  []Flit
	outs   []int
	have   uint64
	marked uint64
	inEvs  []*sim.Event
	ready  func() bool
	signal bool

	name string
	clk  *sim.Clock
	sub  *trace.Subject // armed handshake tracing; nil when disarmed
}

// outLock is an output VC's wormhole lock: while active, only the same
// VC of input port inPort may send on it.
type outLock struct {
	active bool
	inPort int
}

// NewWHVCRouter builds a router with nPorts ports and nVCs virtual
// channels per port. route maps destinations to output ports. VC
// buffering depth is set by the channels bound to the ports, and mode is
// their port-operation cost model, which picks how connections.Method
// runs the router's step.
func NewWHVCRouter(clk *sim.Clock, name string, nPorts, nVCs int, route RouteFunc, mode connections.Mode) *WHVCRouter {
	if nPorts < 1 || nVCs < 1 || nPorts*nVCs > 64 {
		panic(fmt.Sprintf("noc: router geometry %d ports × %d VCs unsupported", nPorts, nVCs))
	}
	r := &WHVCRouter{
		In:     make([][]*connections.In[Flit], nPorts),
		Out:    make([][]*connections.Out[Flit], nPorts),
		nPorts: nPorts,
		nVCs:   nVCs,
		lock:   make([]outLock, nPorts*nVCs),
		arbs:   make([]*matchlib.Arbiter, nPorts),
		route:  route,
		ins:    make([]*connections.In[Flit], 0, nPorts*nVCs),
		heads:  make([]Flit, nPorts*nVCs),
		outs:   make([]int, nPorts*nVCs),
		inEvs:  make([]*sim.Event, 0, nPorts*nVCs),
		signal: mode == connections.ModeSignalAccurate,
		name:   name,
		clk:    clk,
		sub:    clk.Sim().Tracer().Subject(name),
	}
	r.ready = r.snapshot
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
			r.ins = append(r.ins, r.In[i][v])
		}
		r.arbs[i] = matchlib.NewArbiter(nPorts * nVCs)
	}
	connections.Method(clk, name+".whvc", mode, r.step)
	clk.Sim().Metrics().Source(name, r.Stats.emit)
	return r
}

// snapshot brings heads and have up to date, as of the current cycle,
// by re-peeking the marked input VCs, and reports whether any input has
// a flit. It is the router's park predicate: with every input VC empty a
// step is a no-op (req stays zero for every output, so neither the
// arbiter state nor the counters are touched), so the router parks until
// a flit is peekable, on the input channels' events, which notify
// whenever a head can appear. Peek never charges a wait in any cost
// model, so the predicate is the same under ModeSignalAccurate. The
// kernel evaluates it at the router's slot right before the step it
// admits, so that step finds the snapshot already taken.
func (r *WHVCRouter) snapshot() bool {
	for m := r.marked; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		if f, ok := r.ins[k].Peek(); ok {
			r.heads[k] = f
			r.have |= 1 << uint(k)
			if f.Head {
				r.outs[k] = r.route(f.Dst)
			}
		} else {
			r.have &^= 1 << uint(k)
		}
	}
	r.marked = 0
	return r.have != 0
}

// step is one pass of the router over its outputs, then a park until an
// input has a flit. Each output port sends at most one flit per cycle,
// chosen round-robin among (a) input VCs that own one of its output VCs
// and have a flit ready and (b) head flits requesting a free output VC.
// Each input port also supplies at most one flit per cycle (single
// crossbar input per port), so once one has, used masks its VCs out of
// the snapshot for the outputs after it.
//
// The heads are peeked only when their channels' commits mark them,
// not once per output or per edge: forward pops at most one flit per
// input port, and used excludes that port from the outputs after it, so
// the rest of the snapshot is what Peek would return; the commit that
// retires the pop marks the input for the next snapshot. The snapshot is
// retaken mid-step only when an input is marked: at the first edge, and
// after a port operation that charged a Wait (ModeSignalAccurate, where
// step runs in a thread) during which a commit changed a head.
func (r *WHVCRouter) step(th *sim.Thread) {
	if len(r.inEvs) == 0 {
		for k, in := range r.ins {
			r.inEvs = append(r.inEvs, in.Event())
			in.Watch(&r.marked, 1<<uint(k))
			r.marked |= 1 << uint(k)
		}
	}
	portVCs := uint64(1)<<uint(r.nVCs) - 1 // the bits of one input port's VCs
	var used uint64                        // the bits of every used input port's VCs
	for o := 0; o < r.nPorts; o++ {
		if r.marked != 0 {
			r.snapshot()
		}
		var req uint64
		for m := r.have &^ used; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			i, v := k/r.nVCs, k%r.nVCs
			f := &r.heads[k]
			lk := r.lock[o*r.nVCs+v]
			if f.Head {
				if r.outs[k] == o && !lk.active {
					req |= 1 << uint(k)
				}
			} else if lk.active && lk.inPort == i {
				req |= 1 << uint(k)
			}
		}
		if req == 0 {
			continue
		}
		g := r.arbs[o].Pick(req)
		if g < 0 {
			continue
		}
		i := g / r.nVCs
		if r.forward(th, o, i, g%r.nVCs, r.heads[g]) {
			used |= portVCs << uint(i*r.nVCs)
		}
	}
	th.WaitOn(r.ready, r.inEvs...)
}

// forward offers f, the head of In[i][v], to VC v of output o; on
// acceptance it retires the flit, acquiring the output VC at the head and
// releasing it at the tail. It reports whether a flit moved. The router
// is the head's only consumer, so the flit is still there to take. In a
// method (every mode but ModeSignalAccurate) one PopNB takes it, and a
// failure means the snapshot lost track of the input: the step panics,
// which stops the run with an error naming the router, port and VC,
// where a blocking Pop would spin within the step forever. Under
// ModeSignalAccurate a stall rolled during the Wait that PushNB charged
// can withhold the head, and the thread's Pop takes it as soon as the
// stall lets it go.
func (r *WHVCRouter) forward(th *sim.Thread, o, i, v int, f Flit) bool {
	if !r.Out[o][v].PushNB(th, f) {
		r.Stats.Stalls++
		if r.sub != nil {
			// Router-level back-pressure: the crossbar had a flit for
			// output o but the downstream VC buffer refused it.
			r.sub.Emit(trace.KindFull, uint64(r.clk.Now()), r.clk.Cycle(), uint64(o))
		}
		return false
	}
	if r.signal {
		r.In[i][v].Pop(th)
	} else if _, ok := r.In[i][v].PopNB(th); !ok {
		panic(fmt.Sprintf("noc: router %s lost the head of in[%d][%d]", r.name, i, v))
	}
	r.Stats.FlitsIn++
	r.Stats.FlitsOut++
	if f.Head {
		r.Stats.PacketsIn++
	}
	switch {
	case f.Tail:
		r.lock[o*r.nVCs+v] = outLock{}
	case f.Head:
		r.lock[o*r.nVCs+v] = outLock{active: true, inPort: i}
	}
	return true
}
