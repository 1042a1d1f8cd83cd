package noc

import (
	"repro/internal/bitvec"
	"repro/internal/stats"
)

// Packet is the unit of end-to-end NoC communication.
type Packet struct {
	Src, Dst int
	ID       uint64
	Payload  []uint64
}

// Flit is one cycle of link transfer. A packet becomes a head flit
// followed by one flit per payload word; the final flit carries Tail.
type Flit struct {
	Head, Tail bool
	Src, Dst   int
	VC         int
	PktID      uint64
	Data       uint64
}

// PackBits renders the flit's wire image for RTL-cosim channels.
func (f Flit) PackBits() bitvec.Vec {
	meta := uint64(0)
	if f.Head {
		meta |= 1
	}
	if f.Tail {
		meta |= 2
	}
	meta |= uint64(f.VC&0x3) << 2
	meta |= uint64(f.Dst&0xff) << 4
	meta |= uint64(f.Src&0xff) << 12
	return bitvec.FromUint64(f.Data, 64).Concat(bitvec.FromUint64(meta, 20))
}

// Flits serializes the packet on virtual channel vc.
func (p Packet) Flits(vc int) []Flit {
	return p.appendFlits(make([]Flit, 0, len(p.Payload)+1), vc)
}

// appendFlits appends the packet's flits on virtual channel vc to dst.
func (p Packet) appendFlits(dst []Flit, vc int) []Flit {
	dst = append(dst, Flit{Head: true, Tail: len(p.Payload) == 0, Src: p.Src, Dst: p.Dst, VC: vc, PktID: p.ID})
	for i, w := range p.Payload {
		dst = append(dst, Flit{
			Src: p.Src, Dst: p.Dst, VC: vc, PktID: p.ID,
			Data: w, Tail: i == len(p.Payload)-1,
		})
	}
	return dst
}

// RouteFunc maps a destination node to a local output port of a router.
type RouteFunc func(dst int) int

// RouterStats counts router activity.
type RouterStats struct {
	FlitsIn   uint64
	FlitsOut  uint64
	PacketsIn uint64
	Stalls    uint64 // output offers rejected by back-pressure
}

// emit surfaces the counters into the unified metrics registry; routers
// register it as their component's snapshot source.
func (s *RouterStats) emit(emit stats.Emit) {
	emit("flits_in", float64(s.FlitsIn))
	emit("flits_out", float64(s.FlitsOut))
	emit("packets_in", float64(s.PacketsIn))
	emit("stalls", float64(s.Stalls))
}
