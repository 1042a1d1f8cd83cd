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
//
// The hart executes one instruction per edge. An MMIO access the NI or
// the AXI bus cannot take yet stalls it: the access is refused
// (riscv.CPU.Retry), leaving PC, the registers and Instret as they were,
// and the instruction executes again on the edge the blocking port
// operation would have gone on, so it retires on that edge. The node
// keeps how far the access got — the packet a RegNocSend store built,
// the AXI transaction's phase — so that no side effect repeats.
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

	th         *sim.Thread // the hart's process, for MMIO port operations
	clk        *sim.Clock
	txLo, txHi uint32
	txPayload  []uint64
	nextPktID  uint64
	send       noc.Packet // the packet a RegNocSend store built, while sending
	sending    bool

	// AXI master into global memory (nil when the bus is absent).
	AXI      *axi.Master
	axiWords int // words mapped behind AXIWindow
	axiTxns  uint64
	axiPhase axiPhase // how far the current AXI-window access got
}

// axiPhase is how far an AXI-window access got before the hart stalled.
type axiPhase uint8

const (
	axiIdle axiPhase = iota // no transaction in flight
	axiAddr                 // address beat sent: a read awaits R, a write owes its W beat
	axiData                 // W beat sent: the write awaits B
)

// never is the park predicate of a halted hart.
func never() bool { return false }

// newRVNode builds the controller with firmware already in RAM. mode is
// the channels' port-operation cost model, which picks how
// connections.Method runs the hart's step.
func newRVNode(clk *sim.Clock, name string, id, ramWords int, program []uint32,
	inject *connections.Out[noc.Packet], eject *connections.In[noc.Packet], mode connections.Mode) *RVNode {
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

	connections.Method(clk, name+"/hart", mode, r.step)
	clk.Sim().Metrics().Source(name, func(emit stats.Emit) {
		emit("instret", float64(r.CPU.Instret))
		emit("done_count", float64(r.doneCount))
		emit("axi_txns", float64(r.axiTxns))
		emit("exit_code", float64(r.ExitCode))
	})
	return r
}

// step executes the instruction at PC. A retired instruction is followed
// by an edge's wait and a halted hart parks for good; a refused one has
// already parked through its port.
func (r *RVNode) step(th *sim.Thread) {
	r.th = th
	retired := r.CPU.Instret
	if err := r.CPU.Step(r); err != nil {
		panic(err)
	}
	switch {
	case r.CPU.Instret == retired:
	case r.CPU.Halted:
		th.WaitOn(never)
	default:
		th.WaitN(1)
	}
}

// refuse refuses the current MMIO access, whose operation on p failed,
// so the hart executes the instruction again once p's Park returns: on
// the edge the blocking port operation would go on.
func (r *RVNode) refuse(p interface{ Park(*sim.Thread) }) {
	r.CPU.Retry()
	p.Park(r.th)
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
		return r.axiRead(int(addr-AXIWindow) / 4)
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
		if !r.sending {
			r.nextPktID++
			payload := make([]uint64, len(r.txPayload))
			copy(payload, r.txPayload)
			r.txPayload = r.txPayload[:0]
			r.send, r.sending = noc.Packet{Src: r.ID, Dst: int(v), ID: uint64(r.ID)<<32 | r.nextPktID, Payload: payload}, true
		}
		// The store stalls the hart until the NI accepts the packet.
		if !r.inject.PushNB(r.th, r.send) {
			r.refuse(r.inject)
			return
		}
		r.send, r.sending = noc.Packet{}, false
		return
	case RegTestExit:
		r.Exited = true
		r.ExitCode = v
		r.CPU.Halted = true
		r.th.Sim().Stop()
		return
	}
	if r.AXI != nil && addr >= AXIWindow && addr < AXIWindow+uint32(r.axiWords)*4 {
		r.axiWrite(int(addr-AXIWindow)/4, v)
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

// axiRead is axi.Master.ReadBurst of one word, one phase at a time: the
// AR beat, then the R beat, each refusing the load while its channel
// cannot go.
func (r *RVNode) axiRead(w int) uint32 {
	m := r.AXI
	if r.axiPhase == axiIdle {
		if !m.AR.PushNB(r.th, axi.ReadAddr{ID: NodeRV, Addr: w, Len: 1}) {
			r.refuse(m.AR)
			return 0
		}
		r.axiPhase = axiAddr
	}
	for {
		d, ok := m.R.PopNB(r.th)
		if !ok {
			r.refuse(m.R)
			return 0
		}
		if d.ID != NodeRV {
			continue
		}
		r.axiPhase = axiIdle
		if !d.OK {
			panic(fmt.Sprintf("soc: AXI read error at word %d", w))
		}
		r.axiTxns++
		return uint32(d.Data)
	}
}

// axiWrite is axi.Master.WriteBurst of one word, one phase at a time:
// the AW beat, the W beat and, an edge after it, the B beat, each
// refusing the store while its channel cannot go.
func (r *RVNode) axiWrite(w int, v uint32) {
	m := r.AXI
	switch r.axiPhase {
	case axiIdle:
		if !m.AW.PushNB(r.th, axi.WriteAddr{ID: NodeRV, Addr: w, Len: 1}) {
			r.refuse(m.AW)
			return
		}
		r.axiPhase = axiAddr
		fallthrough
	case axiAddr:
		if !m.W.PushNB(r.th, axi.WriteData{Data: uint64(v), Last: true}) {
			r.refuse(m.W)
			return
		}
		// WriteBurst waits an edge after the last W beat.
		r.axiPhase = axiData
		r.CPU.Retry()
		r.th.WaitN(1)
		return
	}
	for {
		b, ok := m.B.PopNB(r.th)
		if !ok {
			r.refuse(m.B)
			return
		}
		if b.ID != NodeRV {
			continue
		}
		r.axiPhase = axiIdle
		if !b.OK {
			panic(fmt.Sprintf("soc: AXI write error at word %d", w))
		}
		r.axiTxns++
		return
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
