package matchlib

import (
	"fmt"

	"repro/internal/connections"
	"repro/internal/sim"
)

// SPReq is a scratchpad request issued on a lane port.
type SPReq[T any] struct {
	Write bool
	Addr  int
	Data  T // payload for writes
}

// SPResp is a scratchpad read response delivered on the same lane the
// request arrived on. Writes do not generate responses.
type SPResp[T any] struct {
	Addr int
	Data T
}

// Scratchpad is the banked memory array with crossbar (paper Table 2):
// N request lanes front N word-interleaved banks. Lanes that hit distinct
// banks are served in the same cycle; on a bank conflict the lowest lane
// wins and the others retry next cycle (fixed priority, no queuing).
// ArbitratedScratchpad adds queues and round-robin arbitration.
type Scratchpad[T any] struct {
	Req []*connections.In[SPReq[T]]
	Rsp []*connections.Out[SPResp[T]]

	Mem       *MemArray[T]
	Conflicts uint64 // cycles × lanes deferred by bank conflicts
}

// NewScratchpad builds a scratchpad with lanes ports and lanes banks over
// size words.
func NewScratchpad[T any](clk *sim.Clock, name string, lanes, size int) *Scratchpad[T] {
	sp := &Scratchpad[T]{
		Req: make([]*connections.In[SPReq[T]], lanes),
		Rsp: make([]*connections.Out[SPResp[T]], lanes),
		Mem: NewMemArray[T](size, lanes),
	}
	for i := range sp.Req {
		sp.Req[i] = connections.NewIn[SPReq[T]]()
		sp.Rsp[i] = connections.NewOut[SPResp[T]]()
	}
	pending := make([]*SPReq[T], lanes)
	clk.Spawn(name+".scratchpad", func(th *sim.Thread) {
		for {
			// Latch one request per lane.
			for i := 0; i < lanes; i++ {
				if pending[i] != nil {
					continue
				}
				if r, ok := sp.Req[i].PopNB(th); ok {
					r := r
					sp.Mem.check(r.Addr)
					pending[i] = &r
				}
			}
			// Serve conflict-free lanes, lowest lane first.
			bankBusy := make(map[int]bool, lanes)
			for i := 0; i < lanes; i++ {
				r := pending[i]
				if r == nil {
					continue
				}
				b := sp.Mem.BankOf(r.Addr)
				if bankBusy[b] {
					sp.Conflicts++
					continue
				}
				if r.Write {
					bankBusy[b] = true
					sp.Mem.Write(r.Addr, r.Data)
					pending[i] = nil
				} else {
					if sp.Rsp[i].PushNB(th, SPResp[T]{Addr: r.Addr, Data: sp.Mem.Read(r.Addr)}) {
						bankBusy[b] = true
						pending[i] = nil
					}
				}
			}
			th.Wait()
		}
	})
	return sp
}

// ArbitratedScratchpad is the banked memory with arbitration and queuing
// (paper Table 2): per-lane request queues feed a round-robin arbiter
// per bank, so conflicting lanes share bank bandwidth fairly while each
// lane observes its own responses in request order.
type ArbitratedScratchpad[T any] struct {
	Req []*connections.In[SPReq[T]]
	Rsp []*connections.Out[SPResp[T]]

	Mem       *MemArray[T]
	Conflicts uint64
}

type spTagged[T any] struct {
	req  SPReq[T]
	lane int
}

// NewArbitratedScratchpad builds the arbitrated variant with per-lane
// queues of depth qdepth and banks independent of the lane count.
func NewArbitratedScratchpad[T any](clk *sim.Clock, name string, lanes, banks, size, qdepth int) *ArbitratedScratchpad[T] {
	if banks < 1 {
		panic(fmt.Sprintf("matchlib: banks %d < 1", banks))
	}
	sp := &ArbitratedScratchpad[T]{
		Req: make([]*connections.In[SPReq[T]], lanes),
		Rsp: make([]*connections.Out[SPResp[T]], lanes),
		Mem: NewMemArray[T](size, banks),
	}
	for i := range sp.Req {
		sp.Req[i] = connections.NewIn[SPReq[T]]()
		sp.Rsp[i] = connections.NewOut[SPResp[T]]()
	}
	laneQ := make([]*FIFO[spTagged[T]], lanes)
	for i := range laneQ {
		laneQ[i] = NewFIFO[spTagged[T]](qdepth)
	}
	arbs := make([]*Arbiter, banks)
	for b := range arbs {
		arbs[b] = NewArbiter(lanes)
	}
	clk.Spawn(name+".arbscratchpad", func(th *sim.Thread) {
		for {
			for i := 0; i < lanes; i++ {
				if laneQ[i].Full() {
					continue
				}
				if r, ok := sp.Req[i].PopNB(th); ok {
					sp.Mem.check(r.Addr)
					laneQ[i].Push(spTagged[T]{req: r, lane: i})
				}
			}
			// Per-bank request masks from lane-queue heads.
			reqMask := make([]uint64, banks)
			for i := 0; i < lanes; i++ {
				if !laneQ[i].Empty() {
					b := sp.Mem.BankOf(laneQ[i].Peek().req.Addr)
					reqMask[b] |= 1 << uint(i)
				}
			}
			for b := 0; b < banks; b++ {
				m := reqMask[b]
				if m == 0 {
					continue
				}
				if m&(m-1) != 0 {
					sp.Conflicts++
				}
				i := arbs[b].Pick(m)
				if i < 0 {
					continue
				}
				tr := laneQ[i].Peek()
				if tr.req.Write {
					sp.Mem.Write(tr.req.Addr, tr.req.Data)
					laneQ[i].Pop()
				} else if sp.Rsp[i].PushNB(th, SPResp[T]{Addr: tr.req.Addr, Data: sp.Mem.Read(tr.req.Addr)}) {
					laneQ[i].Pop()
				}
			}
			th.Wait()
		}
	})
	return sp
}
