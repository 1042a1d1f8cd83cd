package matchlib

import (
	"fmt"

	"repro/internal/sim"
)

// StructuralCrossbar is a register-transfer-level model of the arbitrated
// crossbar: explicit input queues, per-output round-robin arbitration, and
// fully parallel valid/ready handshakes resolved within each cycle. It
// stands in for the HLS-generated RTL the paper cosimulates and provides
// the "RTL" cycle ground truth of Figure 3 — handshakes on all ports
// complete concurrently, unlike the serialized signal-accurate model.
//
// Sources and sinks attach as callbacks: stim is sampled once per input
// per cycle when the input queue has room (returning ok=false models an
// idle producer), and sink is offered one granted message per output per
// cycle (returning false models back-pressure).
type StructuralCrossbar[T any] struct {
	n    int
	inq  []*FIFO[XbarMsg[T]]
	arbs []*Arbiter
	stim func(i int) (XbarMsg[T], bool)
	sink func(j int, v T) bool

	Accepted []uint64
	Offered  uint64
}

// NewStructuralCrossbar builds the RTL crossbar model on clk.
func NewStructuralCrossbar[T any](clk *sim.Clock, name string, n, qdepth int,
	stim func(i int) (XbarMsg[T], bool), sink func(j int, v T) bool) *StructuralCrossbar[T] {
	if n < 1 || n > 64 {
		panic(fmt.Sprintf("matchlib: crossbar ports %d out of range [1,64]", n))
	}
	x := &StructuralCrossbar[T]{
		n:        n,
		inq:      make([]*FIFO[XbarMsg[T]], n),
		arbs:     make([]*Arbiter, n),
		stim:     stim,
		sink:     sink,
		Accepted: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		x.inq[i] = NewFIFO[XbarMsg[T]](qdepth)
		x.arbs[i] = NewArbiter(n)
	}
	clk.AtCommitNamed(name, x.cycle)
	return x
}

// cycle performs one clock edge: arbitration and output transfers happen
// on the state registered at the previous edge, then new input transfers
// land — standard RTL register semantics.
func (x *StructuralCrossbar[T]) cycle() {
	// Per-output request masks from input queue heads.
	var reqs [64]uint64
	for i := 0; i < x.n; i++ {
		if !x.inq[i].Empty() {
			reqs[x.inq[i].Peek().Dst] |= 1 << uint(i)
		}
	}
	// All output handshakes resolve in parallel within the cycle.
	for j := 0; j < x.n; j++ {
		if reqs[j] == 0 {
			continue
		}
		i := x.arbs[j].Pick(reqs[j])
		if i < 0 {
			continue
		}
		x.Offered++
		if x.sink(j, x.inq[i].Peek().Data) {
			x.inq[i].Pop()
			x.Accepted[j]++
		}
	}
	// Input-side handshakes, also parallel.
	for i := 0; i < x.n; i++ {
		if x.inq[i].Full() {
			continue
		}
		if m, ok := x.stim(i); ok {
			if m.Dst < 0 || m.Dst >= x.n {
				panic(fmt.Sprintf("matchlib: crossbar destination %d out of range", m.Dst))
			}
			x.inq[i].Push(m)
		}
	}
}

// TotalAccepted returns transfers delivered across all outputs.
func (x *StructuralCrossbar[T]) TotalAccepted() uint64 {
	var t uint64
	for _, a := range x.Accepted {
		t += a
	}
	return t
}
