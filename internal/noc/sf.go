package noc

import (
	"fmt"

	"repro/internal/connections"
	"repro/internal/matchlib"
	"repro/internal/sim"
)

// SFRouter is the store-and-forward router from Table 2: each input port
// buffers a complete packet before it competes for an output, so per-hop
// latency grows with packet length — the baseline the wormhole router is
// compared against in the NoC ablation benchmarks.
type SFRouter struct {
	In  []*connections.In[Flit]
	Out []*connections.Out[Flit]

	Stats RouterStats

	nPorts     int
	assembling [][]Flit                 // [inPort] partial packet
	ready      []*matchlib.FIFO[[]Flit] // [inPort] complete packets
	sending    []sfSend                 // [outPort]
	arbs       []*matchlib.Arbiter      // [outPort]
	route      RouteFunc
}

type sfSend struct {
	flits []Flit
	idx   int
}

// NewSFRouter builds a store-and-forward router holding up to pktQ
// complete packets per input.
func NewSFRouter(clk *sim.Clock, name string, nPorts, pktQ int, route RouteFunc) *SFRouter {
	if nPorts < 1 || nPorts > 64 {
		panic(fmt.Sprintf("noc: router ports %d unsupported", nPorts))
	}
	r := &SFRouter{
		In:         make([]*connections.In[Flit], nPorts),
		Out:        make([]*connections.Out[Flit], nPorts),
		nPorts:     nPorts,
		assembling: make([][]Flit, nPorts),
		ready:      make([]*matchlib.FIFO[[]Flit], nPorts),
		sending:    make([]sfSend, nPorts),
		arbs:       make([]*matchlib.Arbiter, nPorts),
		route:      route,
	}
	for i := 0; i < nPorts; i++ {
		r.In[i] = connections.NewIn[Flit]().Owned(clk, name, fmt.Sprintf("in[%d]", i))
		r.Out[i] = connections.NewOut[Flit]().Owned(clk, name, fmt.Sprintf("out[%d]", i))
		r.ready[i] = matchlib.NewFIFO[[]Flit](pktQ)
		r.arbs[i] = matchlib.NewArbiter(nPorts)
	}
	clk.Spawn(name+".sf", func(th *sim.Thread) { r.run(th) })
	clk.Sim().Component(name).Source(r.Stats.emit)
	return r
}

func (r *SFRouter) run(th *sim.Thread) {
	// The loop body is a no-op when every input is empty, every assembled
	// packet queue is empty, and no output is mid-packet, so the thread
	// parks on that condition. Only an input can end it — the queues and
	// outputs change only when the router runs — so the park is sensitive
	// to the input channels' events. Parking skips the failing per-input
	// PopNB calls, which is only behavior-preserving when no input charges
	// a per-attempt handshake wait (ModeSignalAccurate).
	park := true
	evs := make([]*sim.Event, r.nPorts)
	for i := 0; i < r.nPorts; i++ {
		if r.In[i].Mode() == connections.ModeSignalAccurate {
			park = false
		}
		evs[i] = r.In[i].Event()
	}
	hasWork := func() bool {
		for i := 0; i < r.nPorts; i++ {
			if r.In[i].Ready() || !r.ready[i].Empty() {
				return true
			}
		}
		for o := 0; o < r.nPorts; o++ {
			if r.sending[o].flits != nil {
				return true
			}
		}
		return false
	}
	for {
		// Assemble complete packets per input.
		for i := 0; i < r.nPorts; i++ {
			if r.ready[i].Full() {
				continue
			}
			if f, ok := r.In[i].PopNB(th); ok {
				r.Stats.FlitsIn++
				if f.Head {
					r.Stats.PacketsIn++
					r.assembling[i] = r.assembling[i][:0]
				}
				r.assembling[i] = append(r.assembling[i], f)
				if f.Tail {
					pkt := make([]Flit, len(r.assembling[i]))
					copy(pkt, r.assembling[i])
					r.ready[i].Push(pkt)
					r.assembling[i] = r.assembling[i][:0]
				}
			}
		}
		// Drive outputs: continue in-flight packets, else arbitrate for a
		// stored packet whose head routes to this output.
		for o := 0; o < r.nPorts; o++ {
			if r.sending[o].flits == nil {
				var req uint64
				for i := 0; i < r.nPorts; i++ {
					if !r.ready[i].Empty() && r.route(r.ready[i].Peek()[0].Dst) == o {
						req |= 1 << uint(i)
					}
				}
				if req == 0 {
					continue
				}
				g := r.arbs[o].Pick(req)
				if g < 0 {
					continue
				}
				r.sending[o] = sfSend{flits: r.ready[g].Pop()}
			}
			s := &r.sending[o]
			if r.Out[o].PushNB(th, s.flits[s.idx]) {
				r.Stats.FlitsOut++
				s.idx++
				if s.idx == len(s.flits) {
					*s = sfSend{}
				}
			} else {
				r.Stats.Stalls++
			}
		}
		if park {
			th.WaitOn(hasWork, evs...)
		} else {
			th.Wait()
		}
	}
}
