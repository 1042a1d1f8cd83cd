package axi

import (
	"fmt"

	"repro/internal/connections"
	"repro/internal/matchlib"
	"repro/internal/sim"
)

// Region maps an address window onto a slave. Addresses are translated to
// slave-local (zero-based) addresses when forwarded.
type Region struct {
	Base, Size int
	Slave      int
}

// Interconnect is an N-master, M-slave AXI crossbar with address-map
// decoding, per-slave round-robin arbitration, and in-order response
// routing back to the originating master.
type Interconnect struct {
	// MasterPorts[i] is the slave-side bundle master i connects to.
	MasterPorts []*Slave
	// SlavePorts[j] is the master-side bundle driving slave j.
	SlavePorts []*Master

	regions []Region
}

// NewInterconnect builds the crossbar for nMasters masters and the slaves
// named by the address map.
func NewInterconnect(clk *sim.Clock, name string, nMasters int, regions []Region) *Interconnect {
	nSlaves := 0
	for _, r := range regions {
		if r.Slave >= nSlaves {
			nSlaves = r.Slave + 1
		}
	}
	ic := &Interconnect{regions: regions}
	for i := 0; i < nMasters; i++ {
		ic.MasterPorts = append(ic.MasterPorts, NewSlave())
	}
	for j := 0; j < nSlaves; j++ {
		ic.SlavePorts = append(ic.SlavePorts, NewMaster())
	}
	for j := 0; j < nSlaves; j++ {
		j := j
		wArb := matchlib.NewArbiter(nMasters)
		rArb := matchlib.NewArbiter(nMasters)
		// Origin queues: which master each in-flight transaction on this
		// slave belongs to, in issue order (slaves respond in order).
		worig := matchlib.NewFIFO[wOrigin](16)
		rorig := matchlib.NewFIFO[wOrigin](16)

		clk.Spawn(fmt.Sprintf("%s.s%d.wr", name, j), func(th *sim.Thread) {
			awEvs := ic.requestEvents(true)
			pending := func() bool { return ic.pending(j, true) != 0 }
			for {
				m := wArb.Pick(ic.pending(j, true))
				if m < 0 {
					th.WaitOn(pending, awEvs...)
					continue
				}
				if worig.Full() {
					th.Wait()
					continue
				}
				// This thread is the only consumer of heads that decode
				// to slave j, so Pop takes the one pending peeked: at
				// once, or after a signal-accurate stall that withheld
				// it during the handshake Wait.
				mp := ic.MasterPorts[m]
				aw := mp.AW.Pop(th)
				local, ok := ic.translate(aw.Addr, aw.Len, j)
				if !ok {
					panic(fmt.Sprintf("axi: write burst at %#x crosses region boundary", aw.Addr))
				}
				worig.Push(wOrigin{master: m, id: aw.ID})
				ic.SlavePorts[j].AW.Push(th, WriteAddr{ID: j, Addr: local, Len: aw.Len})
				for i := 0; i < aw.Len; i++ {
					wd := mp.W.Pop(th)
					ic.SlavePorts[j].W.Push(th, wd)
					th.Wait()
				}
			}
		})
		clk.Spawn(fmt.Sprintf("%s.s%d.wrsp", name, j), func(th *sim.Thread) {
			for {
				b := ic.SlavePorts[j].B.Pop(th)
				o := worig.Pop()
				ic.MasterPorts[o.master].B.Push(th, WriteResp{ID: o.id, OK: b.OK})
				th.Wait()
			}
		})
		clk.Spawn(fmt.Sprintf("%s.s%d.rd", name, j), func(th *sim.Thread) {
			arEvs := ic.requestEvents(false)
			pending := func() bool { return ic.pending(j, false) != 0 }
			for {
				m := rArb.Pick(ic.pending(j, false))
				if m < 0 {
					th.WaitOn(pending, arEvs...)
					continue
				}
				if rorig.Full() {
					th.Wait()
					continue
				}
				mp := ic.MasterPorts[m]
				ar := mp.AR.Pop(th) // as aw in the write thread
				local, ok := ic.translate(ar.Addr, ar.Len, j)
				if !ok {
					panic(fmt.Sprintf("axi: read burst at %#x crosses region boundary", ar.Addr))
				}
				rorig.Push(wOrigin{master: m, id: ar.ID})
				ic.SlavePorts[j].AR.Push(th, ReadAddr{ID: j, Addr: local, Len: ar.Len})
				th.Wait()
			}
		})
		clk.Spawn(fmt.Sprintf("%s.s%d.rrsp", name, j), func(th *sim.Thread) {
			for {
				r := ic.SlavePorts[j].R.Pop(th)
				o := rorig.Peek()
				ic.MasterPorts[o.master].R.Push(th, ReadData{ID: o.id, Data: r.Data, Last: r.Last, OK: r.OK})
				if r.Last {
					rorig.Pop()
				}
				th.Wait()
			}
		})
	}
	return ic
}

type wOrigin struct {
	master, id int
}

// pending returns the mask of masters whose AW (write) or AR (read) head
// decodes to slave j; a slave's request thread round-robins over it. An
// empty mask leaves the arbiter as it is, so a request thread that finds
// none may park on requestEvents until the mask turns nonzero and still
// pick exactly as a thread polling every edge would. A pick rotates the
// arbiter and commits the thread to that request, so while the origin
// queue is full it polls instead.
func (ic *Interconnect) pending(j int, write bool) uint64 {
	var req uint64
	for m, mp := range ic.MasterPorts {
		if write {
			if aw, ok := mp.AW.Peek(); ok && ic.slaveOf(aw.Addr) == j {
				req |= 1 << uint(m)
			}
		} else {
			if ar, ok := mp.AR.Peek(); ok && ic.slaveOf(ar.Addr) == j {
				req |= 1 << uint(m)
			}
		}
	}
	return req
}

// requestEvents returns the events of every master's AW (write) or AR
// (read) channel: whatever can change pending notifies one of them. The
// ports are bound after NewInterconnect, so the request threads call it
// at their first edge.
func (ic *Interconnect) requestEvents(write bool) []*sim.Event {
	evs := make([]*sim.Event, len(ic.MasterPorts))
	for m, mp := range ic.MasterPorts {
		if write {
			evs[m] = mp.AW.Event()
		} else {
			evs[m] = mp.AR.Event()
		}
	}
	return evs
}

func (ic *Interconnect) slaveOf(addr int) int {
	for _, r := range ic.regions {
		if addr >= r.Base && addr < r.Base+r.Size {
			return r.Slave
		}
	}
	return -1
}

// translate converts addr to slave-local form and checks the burst stays
// inside one region.
func (ic *Interconnect) translate(addr, n, j int) (int, bool) {
	for _, r := range ic.regions {
		if r.Slave == j && addr >= r.Base && addr < r.Base+r.Size {
			if addr+n > r.Base+r.Size {
				return 0, false
			}
			return addr - r.Base, true
		}
	}
	return 0, false
}

// Req is a simple single-word LI request, the non-AXI side of the bridge.
type Req struct {
	Write bool
	Addr  int
	Data  uint64
}

// Resp answers a Req.
type Resp struct {
	Data uint64
	OK   bool
}

// Bridge adapts a simple request/response LI channel pair to an AXI
// master bundle — the "bridges for AXI interconnect" entry of Table 2.
type Bridge struct {
	Req  *connections.In[Req]
	Rsp  *connections.Out[Resp]
	Port *Master
}

// NewBridge builds a bridge issuing single-beat AXI transactions with the
// given transaction ID.
func NewBridge(clk *sim.Clock, name string, id int) *Bridge {
	b := &Bridge{
		Req:  connections.NewIn[Req](),
		Rsp:  connections.NewOut[Resp](),
		Port: NewMaster(),
	}
	clk.Spawn(name+"/bridge", func(th *sim.Thread) {
		for {
			req := b.Req.Pop(th)
			if req.Write {
				ok := b.Port.WriteBurst(th, id, req.Addr, []uint64{req.Data})
				b.Rsp.Push(th, Resp{OK: ok})
			} else {
				data, ok := b.Port.ReadBurst(th, id, req.Addr, 1)
				b.Rsp.Push(th, Resp{Data: data[0], OK: ok})
			}
			th.Wait()
		}
	})
	return b
}
