package connections

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/sim"
)

// In is a consumer-side port terminal. Module code holds an In and calls
// Pop/PopNB regardless of which channel kind it is later bound to — the
// polymorphic-port property of the Connections API (paper Table 1).
type In[T any] struct {
	ch    *core[T]
	owner *sim.PortDecl
}

// Out is a producer-side port terminal.
type Out[T any] struct {
	ch    *core[T]
	owner *sim.PortDecl
}

// NewIn returns an unbound consumer port.
func NewIn[T any]() *In[T] { return &In[T]{} }

// NewOut returns an unbound producer port.
func NewOut[T any]() *Out[T] { return &Out[T]{} }

// Owned declares that the component at path owns this port (named port)
// in clk's domain, registering the endpoint in the simulator's design
// graph for the static lint pass (CDC and connectivity rules). Ownership
// is optional — undeclared ports lint silently — and Owned returns the
// receiver so constructors can chain it onto NewIn.
func (p *In[T]) Owned(clk *sim.Clock, path, port string) *In[T] {
	p.owner = clk.Sim().Design().DeclarePort(path, port, clk, sim.PortConsumer)
	return p
}

// Owned declares producer-side port ownership; see In.Owned.
func (p *Out[T]) Owned(clk *sim.Clock, path, port string) *Out[T] {
	p.owner = clk.Sim().Design().DeclarePort(path, port, clk, sim.PortProducer)
	return p
}

// Rated declares the port's token rate for the static communication-rate
// pass (internal/ratecheck): the owning actor moves num/den tokens
// through this port per firing. It chains after Owned — rating an
// anonymous port is a programming error, since ratecheck can only see
// declared endpoints.
func (p *In[T]) Rated(num, den int64) *In[T] {
	if p.owner == nil {
		panic("connections: Rated on a port without Owned; declare ownership first")
	}
	p.owner.Rate = sim.NewRat(num, den)
	return p
}

// Rated declares producer-side token rate; see In.Rated.
func (p *Out[T]) Rated(num, den int64) *Out[T] {
	if p.owner == nil {
		panic("connections: Rated on a port without Owned; declare ownership first")
	}
	p.owner.Rate = sim.NewRat(num, den)
	return p
}

func (p *In[T]) need() *core[T] {
	if p.ch == nil {
		if p.owner != nil {
			panic("connections: Pop on unbound In port " + p.owner.String())
		}
		panic("connections: Pop on unbound In port")
	}
	return p.ch
}

func (p *Out[T]) need() *core[T] {
	if p.ch == nil {
		if p.owner != nil {
			panic("connections: Push on unbound Out port " + p.owner.String())
		}
		panic("connections: Push on unbound Out port")
	}
	return p.ch
}

// Bound reports whether the port has been bound to a channel.
func (p *In[T]) Bound() bool { return p.ch != nil }

// Bound reports whether the port has been bound to a channel.
func (p *Out[T]) Bound() bool { return p.ch != nil }

// PopNB attempts to take one message without blocking. Under
// ModeSignalAccurate it charges one Wait (the delayed ready operation).
func (p *In[T]) PopNB(th *sim.Thread) (T, bool) {
	c := p.need()
	if c.mode == ModeSignalAccurate {
		th.Wait()
	}
	v, ok := c.tryPop()
	if c.sub != nil {
		c.emitPop(ok)
	}
	return v, ok
}

// Pop blocks until a message is available and returns it. In the
// sim-accurate and RTL-cosim models a blocked consumer parks on the
// channel's readiness predicate and event, so idle cycles cost neither a
// coroutine switch nor a predicate call; the signal-accurate model keeps
// polling because every PopNB attempt charges its own handshake Wait.
func (p *In[T]) Pop(th *sim.Thread) T {
	c := p.need()
	if c.mode == ModeSignalAccurate {
		for {
			v, ok := p.PopNB(th)
			if ok {
				return v
			}
		}
	}
	for {
		v, ok := c.tryPop()
		if c.sub != nil {
			c.emitPop(ok)
		}
		if ok {
			return v
		}
		th.WaitOn(c.popReady, c.evs[:]...)
	}
}

// Peek returns the head message without consuming it. It never charges a
// wait and is intended for router/arbiter models.
func (p *In[T]) Peek() (T, bool) { return p.need().peek() }

// Empty reports whether a PopNB this cycle would fail.
func (p *In[T]) Empty() bool {
	c := p.need()
	_, ok := c.peek()
	return !ok
}

// Ready reports whether a PopNB this cycle would succeed, including the
// kind-specific bypass path. Components with their own scan loops use it
// as a parking predicate, sensitive to Event.
func (p *In[T]) Ready() bool { return p.need().canPop() }

// Mode returns the bound channel's port-operation cost model.
func (p *In[T]) Mode() Mode { return p.need().mode }

// Event returns the bound channel's event, which notifies on every push,
// pop and state-changing commit: whatever can change Ready, Peek or
// Empty. Components with their own scan loops park on it.
func (p *In[T]) Event() *sim.Event { return &p.need().ev }

// Stats returns the bound channel's counters.
func (p *In[T]) Stats() Stats { return p.need().Stats() }

// PushNB attempts to send one message without blocking. Under
// ModeSignalAccurate it charges one Wait (the delayed valid operation).
func (p *Out[T]) PushNB(th *sim.Thread, v T) bool {
	c := p.need()
	ok := c.tryPush(v)
	if c.sub != nil {
		c.emitPush(ok)
	}
	if c.mode == ModeSignalAccurate {
		th.Wait()
	}
	return ok
}

// Push blocks until the channel accepts the message. Like Pop, a
// blocked producer parks on the channel's capacity predicate and event
// except in the signal-accurate model.
func (p *Out[T]) Push(th *sim.Thread, v T) {
	c := p.need()
	if c.mode == ModeSignalAccurate {
		for {
			if p.PushNB(th, v) {
				return
			}
		}
	}
	for {
		ok := c.tryPush(v)
		if c.sub != nil {
			c.emitPush(ok)
		}
		if ok {
			return
		}
		th.WaitOn(c.pushReady, c.evs[:]...)
	}
}

// Full reports whether a PushNB this cycle would fail for lack of space.
func (p *Out[T]) Full() bool {
	c := p.need()
	return !c.skidFree() || c.stalledReady
}

// Mode returns the bound channel's port-operation cost model.
func (p *Out[T]) Mode() Mode { return p.need().mode }

// Event returns the bound channel's event; see In.Event.
func (p *Out[T]) Event() *sim.Event { return &p.need().ev }

// Stats returns the bound channel's counters.
func (p *Out[T]) Stats() Stats { return p.need().Stats() }

// Channel is the handle returned by Bind, exposing identity and counters.
type Channel[T any] struct {
	c *core[T]
}

// Name returns the channel's instance name.
func (ch Channel[T]) Name() string { return ch.c.name }

// Kind returns the channel implementation kind.
func (ch Channel[T]) Kind() Kind { return ch.c.kind }

// Mode returns the channel's port-operation cost model.
func (ch Channel[T]) Mode() Mode { return ch.c.mode }

// Stats returns the channel's traffic counters.
func (ch Channel[T]) Stats() Stats { return ch.c.Stats() }

// RTLToggles returns accumulated wire toggles (ModeRTLCosim only), the
// switching-activity feed for power analysis.
func (ch Channel[T]) RTLToggles() uint64 { return ch.c.rtlToggles }

// Occupancy returns the number of committed messages currently held.
func (ch Channel[T]) Occupancy() int { return len(ch.c.queue) }

// Bind creates a channel of the given kind on clk and attaches the two
// port terminals to it. capacity is the FIFO depth for KindBuffer and is
// ignored (forced to 1) for the other kinds.
func Bind[T any](clk *sim.Clock, name string, kind Kind, capacity int, out *Out[T], in *In[T], opts ...Option) Channel[T] {
	if out.ch != nil {
		if out.owner != nil {
			panic(fmt.Sprintf("connections: Out port %s already bound to channel %s (rebinding as %s)", out.owner, out.ch.name, name))
		}
		panic(fmt.Sprintf("connections: Out port already bound (channel %s)", name))
	}
	if in.ch != nil {
		if in.owner != nil {
			panic(fmt.Sprintf("connections: In port %s already bound to channel %s (rebinding as %s)", in.owner, in.ch.name, name))
		}
		panic(fmt.Sprintf("connections: In port already bound (channel %s)", name))
	}
	if kind != KindBuffer {
		capacity = 1
	}
	var o options
	for _, f := range opts {
		f(&o)
	}
	c := newCore[T](clk, name, kind, capacity, &o)
	out.ch = c
	in.ch = c
	// Record the channel and link its declared endpoints into the design
	// graph — a constructor-time append the static lint pass walks later.
	clk.Sim().Design().AddChannel(sim.ChannelDecl{
		Name:       name,
		Clock:      clk,
		Kind:       kind.String(),
		Capacity:   capacity,
		Latency:    c.latency,
		Terminated: o.terminated,
		Prod:       out.owner,
		Cons:       in.owner,
	})
	if out.owner != nil {
		out.owner.Bound = true
		out.owner.Channel = name
	}
	if in.owner != nil {
		in.owner.Bound = true
		in.owner.Channel = name
	}
	return Channel[T]{c: c}
}

// Combinational binds out/in with a flow-through channel.
func Combinational[T any](clk *sim.Clock, name string, out *Out[T], in *In[T], opts ...Option) Channel[T] {
	return Bind(clk, name, KindCombinational, 1, out, in, opts...)
}

// Bypass binds out/in with a 1-deep channel allowing dequeue-when-empty.
func Bypass[T any](clk *sim.Clock, name string, out *Out[T], in *In[T], opts ...Option) Channel[T] {
	return Bind(clk, name, KindBypass, 1, out, in, opts...)
}

// Pipeline binds out/in with a 1-deep channel allowing enqueue-when-full.
func Pipeline[T any](clk *sim.Clock, name string, out *Out[T], in *In[T], opts ...Option) Channel[T] {
	return Bind(clk, name, KindPipeline, 1, out, in, opts...)
}

// Buffer binds out/in with a FIFO channel of the given depth.
func Buffer[T any](clk *sim.Clock, name string, depth int, out *Out[T], in *In[T], opts ...Option) Channel[T] {
	return Bind(clk, name, KindBuffer, depth, out, in, opts...)
}

// Connect is a convenience that creates a fresh bound port pair.
func Connect[T any](clk *sim.Clock, name string, kind Kind, capacity int, opts ...Option) (*Out[T], *In[T], Channel[T]) {
	out, in := NewOut[T](), NewIn[T]()
	ch := Bind(clk, name, kind, capacity, out, in, opts...)
	return out, in, ch
}

// Packable is implemented by message types that can render themselves as
// hardware bits; ModeRTLCosim channels and Packetizer channels require it.
type Packable interface {
	PackBits() bitvec.Vec
}

// WithPackable enables bit-level signal work in ModeRTLCosim for channels
// whose message type implements Packable. Bind helpers call this
// automatically when T implements Packable, so it is rarely needed.
func WithPackable[T Packable]() Option {
	return func(o *options) {
		o.packer = func(v any) bitvec.Vec { return v.(T).PackBits() }
	}
}
