package soc

import (
	"fmt"

	"repro/internal/connections"
	"repro/internal/matchlib"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// MaxPayloadWords is the DMA packetization limit: larger transfers are
// split into multiple NoC packets by the sending node.
const MaxPayloadWords = 16

// MemNode is a memory-bearing NoC endpoint: the global-memory partitions
// are plain MemNodes, and the PE embeds one and adds the kernel engine.
// It speaks the Write/Read/Exec/Done protocol on its NI ports.
type MemNode struct {
	ID    int
	Mem   *matchlib.MemArray[uint64]
	banks int

	inject *connections.Out[noc.Packet]
	eject  *connections.In[noc.Packet]

	// Done mailbox, drained by the owner (the RISC-V node embeds its own).
	doneQ *matchlib.FIFO[int]

	exec func(th *sim.Thread, d decoded) // nil for plain memory nodes

	nextPktID uint64
	Stats     NodeStats
}

// NodeStats counts node activity.
type NodeStats struct {
	WritesIn   uint64 // words written by incoming packets
	ReadsOut   uint64 // words DMAed out
	Kernels    uint64
	PacketsIn  uint64
	PacketsOut uint64
}

// newMemNode builds the node engine on clk. inject/eject are the user
// side of the node's NI packet ports.
func newMemNode(clk *sim.Clock, name string, id, words, banks int,
	inject *connections.Out[noc.Packet], eject *connections.In[noc.Packet]) *MemNode {
	n := &MemNode{
		ID:     id,
		Mem:    matchlib.NewMemArray[uint64](words, banks),
		banks:  banks,
		inject: inject,
		eject:  eject,
		doneQ:  matchlib.NewFIFO[int](64),
	}
	clk.Spawn(name+"/handler", func(th *sim.Thread) { n.run(th) })
	clk.Sim().Metrics().Source(name, func(emit stats.Emit) {
		emit("writes_in", float64(n.Stats.WritesIn))
		emit("reads_out", float64(n.Stats.ReadsOut))
		emit("kernels", float64(n.Stats.Kernels))
		emit("packets_in", float64(n.Stats.PacketsIn))
		emit("packets_out", float64(n.Stats.PacketsOut))
		r, w := n.Mem.Accesses()
		emit("mem_reads", float64(r))
		emit("mem_writes", float64(w))
	})
	return n
}

// send injects one packet, blocking until the NI accepts it.
func (n *MemNode) send(th *sim.Thread, dst int, payload []uint64) {
	n.nextPktID++
	n.inject.Push(th, noc.Packet{Src: n.ID, Dst: dst, ID: uint64(n.ID)<<32 | n.nextPktID, Payload: payload})
	n.Stats.PacketsOut++
}

// bankCycles models banked-memory throughput: banks words move per cycle.
func (n *MemNode) bankCycles(th *sim.Thread, words int) {
	th.WaitN((words + n.banks - 1) / n.banks)
}

func (n *MemNode) run(th *sim.Thread) {
	for {
		pkt := n.eject.Pop(th)
		n.Stats.PacketsIn++
		d := decode(pkt)
		switch d.kind {
		case MsgWrite:
			for i, w := range d.data {
				n.Mem.Write(d.addr+i, w)
			}
			n.Stats.WritesIn += uint64(len(d.data))
			n.bankCycles(th, len(d.data))
			if d.notify != NoNotify {
				n.send(th, d.notify, DoneMsg(0))
			}
		case MsgRead:
			n.dma(th, d)
		case MsgExec:
			if n.exec == nil {
				panic(fmt.Sprintf("soc: node %d cannot execute kernels", n.ID))
			}
			n.Stats.Kernels++
			n.exec(th, d)
			if d.notify != NoNotify {
				n.send(th, d.notify, DoneMsg(d.code))
			}
		case MsgDone:
			if !n.doneQ.Full() {
				n.doneQ.Push(d.code)
			}
		}
		th.Wait()
	}
}

// dma streams memory [addr, addr+n) to the requester in MaxPayloadWords
// chunks; the final chunk carries the requester's notify target so the
// receiver reports landing.
func (n *MemNode) dma(th *sim.Thread, d decoded) {
	for off := 0; off < d.n; off += MaxPayloadWords {
		chunk := d.n - off
		if chunk > MaxPayloadWords {
			chunk = MaxPayloadWords
		}
		data := make([]uint64, chunk)
		for i := range data {
			data[i] = n.Mem.Read(d.addr + off + i)
		}
		n.bankCycles(th, chunk)
		notify := NoNotify
		if off+chunk >= d.n {
			notify = d.notify
		}
		n.send(th, d.replyTo, WriteMsg(d.replyAddr+off, data, notify))
	}
	n.Stats.ReadsOut += uint64(d.n)
}
