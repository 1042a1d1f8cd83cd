package soc

import (
	"fmt"

	"repro/internal/axi"
	"repro/internal/connections"
	"repro/internal/matchlib"
	"repro/internal/noc"
	"repro/internal/riscv"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Memory-mapped IO addresses of the RISC-V global controller.
const (
	MMIOBase    = 0x8000_0000
	RegNocLo    = MMIOBase + 0x00 // staged payload word, low half
	RegNocHi    = MMIOBase + 0x04 // staged payload word, high half
	RegNocApp   = MMIOBase + 0x08 // append {hi,lo} to the payload
	RegNocSend  = MMIOBase + 0x0c // write dst: inject staged payload
	RegDoneCnt  = MMIOBase + 0x10 // cumulative MsgDone count
	RegDonePop  = MMIOBase + 0x14 // pop one done code (+1), 0 if empty
	RegCycles   = MMIOBase + 0x18 // current cycle count (low 32 bits)
	RegTestExit = 0x9000_0000     // write: record code, halt, stop sim

	// AXIWindow maps global memory into the controller's address space
	// through the AXI bus of Figure 5: word w of global memory (GML
	// first, then GMR) appears at AXIWindow + 4*w. Accesses issue real
	// single-beat AXI transactions and stall the hart until the bus
	// responds.
	AXIWindow = 0xa000_0000
)

// RVNode is the RISC-V control-processor partition: an RV32I hart with
// local RAM and a memory-mapped network interface through which firmware
// configures PEs and global memory and orchestrates DMA — the paper's
// "global controller" role.
type RVNode struct {
	ID  int
	CPU *riscv.CPU
	RAM []uint32 // word-addressed local memory

	inject *connections.Out[noc.Packet]
	eject  *connections.In[noc.Packet]

	doneCount uint32
	doneQ     *matchlib.FIFO[int]

	Exited   bool
	ExitCode uint32

	th         *sim.Thread // CPU thread, for blocking MMIO side effects
	clk        *sim.Clock
	txLo, txHi uint32
	txPayload  []uint64
	nextPktID  uint64

	// AXI master into global memory (nil when the bus is absent).
	AXI      *axi.Master
	axiWords int // words mapped behind AXIWindow
	axiTxns  uint64
}

// newRVNode builds the controller with firmware already in RAM.
func newRVNode(clk *sim.Clock, name string, id, ramWords int, program []uint32,
	inject *connections.Out[noc.Packet], eject *connections.In[noc.Packet]) *RVNode {
	r := &RVNode{
		ID:     id,
		CPU:    &riscv.CPU{},
		RAM:    make([]uint32, ramWords),
		inject: inject,
		eject:  eject,
		doneQ:  matchlib.NewFIFO[int](256),
		clk:    clk,
	}
	copy(r.RAM, program)
	r.CPU.Reset(0)

	// Network handler: incoming writes land in RAM (low 32 bits of each
	// word), done messages increment the mailbox counter.
	clk.Spawn(name+"/nochandler", func(th *sim.Thread) {
		for {
			pkt := r.eject.Pop(th)
			d := decode(pkt)
			switch d.kind {
			case MsgWrite:
				for i, w := range d.data {
					if d.addr+i < len(r.RAM) {
						r.RAM[d.addr+i] = uint32(w)
					}
				}
				if d.notify == r.ID {
					// Data landed in our own RAM; count it directly.
					r.doneCount++
				} else if d.notify != NoNotify {
					r.nextPktID++
					r.inject.Push(th, noc.Packet{Src: r.ID, Dst: d.notify, ID: uint64(r.ID)<<32 | r.nextPktID, Payload: DoneMsg(0)})
				}
			case MsgDone:
				r.doneCount++
				if !r.doneQ.Full() {
					r.doneQ.Push(d.code)
				}
			default:
				panic(fmt.Sprintf("soc: RV node got message kind %d", d.kind))
			}
			th.Wait()
		}
	})

	// The hart: one instruction per cycle.
	clk.Spawn(name+"/hart", func(th *sim.Thread) {
		r.th = th
		for !r.CPU.Halted {
			if err := r.CPU.Step(r); err != nil {
				panic(err)
			}
			th.Wait()
		}
	})
	clk.Sim().Metrics().Source(name, func(emit stats.Emit) {
		emit("instret", float64(r.CPU.Instret))
		emit("done_count", float64(r.doneCount))
		emit("axi_txns", float64(r.axiTxns))
		emit("exit_code", float64(r.ExitCode))
	})
	return r
}

// Load implements riscv.Bus.
func (r *RVNode) Load(addr uint32, size int) uint32 {
	switch addr {
	case RegDoneCnt:
		return r.doneCount
	case RegDonePop:
		if r.doneQ.Empty() {
			return 0
		}
		return uint32(r.doneQ.Pop()) + 1
	case RegCycles:
		return uint32(r.clk.Cycle())
	}
	if r.AXI != nil && addr >= AXIWindow && addr < AXIWindow+uint32(r.axiWords)*4 {
		w := int(addr-AXIWindow) / 4
		data, ok := r.AXI.ReadBurst(r.th, NodeRV, w, 1)
		if !ok {
			panic(fmt.Sprintf("soc: AXI read error at word %d", w))
		}
		r.axiTxns++
		return uint32(data[0])
	}
	if addr >= MMIOBase {
		panic(fmt.Sprintf("soc: RV load from unmapped MMIO %#x", addr))
	}
	w := r.ramWord(addr)
	sh := (addr & 3) * 8
	switch size {
	case 1:
		return w >> sh & 0xff
	case 2:
		return w >> sh & 0xffff
	default:
		return w
	}
}

// Store implements riscv.Bus.
func (r *RVNode) Store(addr uint32, size int, v uint32) {
	switch addr {
	case RegNocLo:
		r.txLo = v
		return
	case RegNocHi:
		r.txHi = v
		return
	case RegNocApp:
		r.txPayload = append(r.txPayload, uint64(r.txHi)<<32|uint64(r.txLo))
		r.txLo, r.txHi = 0, 0
		return
	case RegNocSend:
		r.nextPktID++
		payload := make([]uint64, len(r.txPayload))
		copy(payload, r.txPayload)
		r.txPayload = r.txPayload[:0]
		// The store stalls the hart until the NI accepts the packet.
		r.inject.Push(r.th, noc.Packet{Src: r.ID, Dst: int(v), ID: uint64(r.ID)<<32 | r.nextPktID, Payload: payload})
		return
	case RegTestExit:
		r.Exited = true
		r.ExitCode = v
		r.CPU.Halted = true
		r.th.Sim().Stop()
		return
	}
	if r.AXI != nil && addr >= AXIWindow && addr < AXIWindow+uint32(r.axiWords)*4 {
		w := int(addr-AXIWindow) / 4
		if !r.AXI.WriteBurst(r.th, NodeRV, w, []uint64{uint64(v)}) {
			panic(fmt.Sprintf("soc: AXI write error at word %d", w))
		}
		r.axiTxns++
		return
	}
	if addr >= MMIOBase {
		panic(fmt.Sprintf("soc: RV store to unmapped MMIO %#x", addr))
	}
	i := addr >> 2
	if int(i) >= len(r.RAM) {
		panic(fmt.Sprintf("soc: RV store out of RAM at %#x", addr))
	}
	sh := (addr & 3) * 8
	switch size {
	case 1:
		r.RAM[i] = r.RAM[i]&^(0xff<<sh) | (v&0xff)<<sh
	case 2:
		r.RAM[i] = r.RAM[i]&^(0xffff<<sh) | (v&0xffff)<<sh
	default:
		r.RAM[i] = v
	}
}

// axiPort creates the controller's AXI master bundle and maps the given
// number of global-memory words behind AXIWindow.
func (r *RVNode) axiPort(words int) *axi.Master {
	r.AXI = axi.NewMaster()
	r.axiWords = words
	return r.AXI
}

// AXITransactions returns the number of AXI bus transactions issued.
func (r *RVNode) AXITransactions() uint64 { return r.axiTxns }

func (r *RVNode) ramWord(addr uint32) uint32 {
	i := addr >> 2
	if int(i) >= len(r.RAM) {
		panic(fmt.Sprintf("soc: RV load out of RAM at %#x", addr))
	}
	return r.RAM[i]
}
