package matchlib

import (
	"repro/internal/bitvec"
	"repro/internal/connections"
	"repro/internal/sim"
)

// Serializer converts N-bit messages to M cycles of (N/M)-bit flits
// (paper Table 2). It is the router-interface building block of the PE:
// one flit leaves per cycle.
type Serializer[T connections.Packable] struct {
	In  *connections.In[T]
	Out *connections.Out[connections.Flit]
}

// NewSerializer builds a serializer emitting flits of flitWidth bits.
func NewSerializer[T connections.Packable](clk *sim.Clock, name string, flitWidth int) *Serializer[T] {
	s := &Serializer[T]{
		In:  connections.NewIn[T](),
		Out: connections.NewOut[connections.Flit](),
	}
	clk.Spawn(name+".ser", func(th *sim.Thread) {
		for {
			v := s.In.Pop(th)
			for _, f := range connections.SplitFlits(v.PackBits(), flitWidth) {
				s.Out.Push(th, f)
				th.Wait()
			}
		}
	})
	return s
}

// Deserializer reassembles flit streams into messages of msgWidth bits,
// recovered by unpack.
type Deserializer[T any] struct {
	In  *connections.In[connections.Flit]
	Out *connections.Out[T]
}

// NewDeserializer builds a deserializer for messages of msgWidth bits.
func NewDeserializer[T any](clk *sim.Clock, name string, msgWidth int, unpack func(bitvec.Vec) T) *Deserializer[T] {
	d := &Deserializer[T]{
		In:  connections.NewIn[connections.Flit](),
		Out: connections.NewOut[T](),
	}
	clk.Spawn(name+".des", func(th *sim.Thread) {
		var acc []connections.Flit
		for {
			f := d.In.Pop(th)
			acc = append(acc, f)
			if f.Last {
				d.Out.Push(th, unpack(connections.JoinFlits(acc, msgWidth)))
				acc = acc[:0]
			}
			th.Wait()
		}
	})
	return d
}
