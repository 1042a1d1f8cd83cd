package sim

// The design graph is a constructor-time side table describing the
// elaborated structure of a simulation: which channels exist, which
// component owns each channel endpoint and on which clock, which
// clock-domain synchronizers join which domains, and how the hierarchy
// is partitioned into clock regions. Constructors append to it in O(1)
// as the design is built — nothing here runs per cycle — and the static
// lint pass (internal/lint) walks it before simulation starts. A design
// that never lints pays only the appends.

// PortDir distinguishes the two ends of a latency-insensitive channel.
type PortDir int

// Port directions.
const (
	PortProducer PortDir = iota // an Out terminal: the component pushes
	PortConsumer                // an In terminal: the component pops
)

func (d PortDir) String() string {
	if d == PortProducer {
		return "Out"
	}
	return "In"
}

// PortDecl is a declared channel endpoint: the component at Path owns a
// port named Port in Clock's domain. Declaring ownership is optional —
// lint rules fire only on inconsistent declarations, never on missing
// ones — so raw testbench ports stay silent.
type PortDecl struct {
	Path  string // owning component path
	Port  string // port name within the component
	Clock *Clock
	Dir   PortDir

	Bound   bool   // set by connections.Bind when a channel attaches
	Channel string // name of the channel the port is bound to

	// Rate is the endpoint's declared token rate per actor firing for the
	// static communication-rate pass (internal/ratecheck). The zero value
	// means undeclared, which ratecheck treats as one token per firing.
	Rate Rat
}

// String renders the endpoint as "path.port".
func (p *PortDecl) String() string { return p.Path + "." + p.Port }

// ChannelDecl records one bound channel: its clock, kind, declared
// capacity (before any runtime clamping, so lint can see an illegal
// depth), retiming latency, and — when the endpoints declared ownership
// — the producer and consumer port declarations.
type ChannelDecl struct {
	Name       string
	Clock      *Clock
	Kind       string
	Capacity   int // declared FIFO depth; runtime clamps to >= 1
	Latency    int
	Terminated bool // intentional stub; exempt from dangling-endpoint lint
	Prod       *PortDecl
	Cons       *PortDecl
}

// Rat is an exact nonnegative rational, the number type of every rate
// declaration and every ratecheck bound. Rates are rationals, never
// floats, so diagnostics and throughput bounds render byte-identically
// on every host (cmd/detvet enforces the no-float rule on the analysis
// package). The zero value means "undeclared".
type Rat struct {
	Num int64 `json:"num"`
	Den int64 `json:"den"`
}

// NewRat returns num/den reduced to lowest terms. Both arguments must be
// positive; rate declarations have no meaningful zero or negative form.
func NewRat(num, den int64) Rat {
	if num <= 0 || den <= 0 {
		panic("sim: rate must be a positive rational")
	}
	g := gcd64(num, den)
	return Rat{Num: num / g, Den: den / g}
}

// IsZero reports whether the rational is the undeclared zero value.
func (r Rat) IsZero() bool { return r.Num == 0 && r.Den == 0 }

// String renders "num/den", or "num" when the denominator is 1.
func (r Rat) String() string {
	if r.IsZero() {
		return "?"
	}
	if r.Den == 1 {
		return itoa64(r.Num)
	}
	return itoa64(r.Num) + "/" + itoa64(r.Den)
}

// itoa64 is strconv.FormatInt(n, 10) without the import, keeping this
// file's dependency set empty.
func itoa64(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

// ActorClass tells the rate analysis how a component moves tokens.
type ActorClass int

// Actor classes.
const (
	// ActorSDF is a synchronous-dataflow actor: each firing consumes and
	// produces a fixed token count on every declared port, so the actor
	// participates in the balance equations.
	ActorSDF ActorClass = iota
	// ActorSwitch moves tokens data-dependently (routers, arbiter muxes, NIs):
	// per-port rates are not fixed per firing, so the balance equations
	// skip it and only the hardware port limit bounds its channels.
	ActorSwitch
)

func (c ActorClass) String() string {
	if c == ActorSwitch {
		return "switch"
	}
	return "sdf"
}

// ActorDecl registers a component path as a rate-analysis actor.
type ActorDecl struct {
	Path  string
	Class ActorClass
	Clock *Clock

	// Service is the actor's maximum firing rate in firings per cycle of
	// its clock. Zero means unconstrained: the actor can fire every cycle
	// its ports allow, and ratecheck derives no supply/demand diagnostic
	// from it.
	Service Rat
}

// SyncDecl records one clock-domain synchronizer (a GALS FIFO): the only
// legal way for data to cross between Prod's and Cons's domains.
type SyncDecl struct {
	Name  string
	Style string // "pausible" or "brute-force"
	Prod  *Clock
	Cons  *Clock
	Depth int
}

// Partition labels a component subtree as one clock region; the SoC
// builder marks each node partition so CDC diagnostics can name the
// regions a bad crossing joins.
type Partition struct {
	Path  string
	Clock *Clock
}

// Collision records two design objects claiming the same name. Because
// the metrics registry merges equal paths silently, a duplicate name
// means merged stats and trace channels — lint reports it as CON-4.
type Collision struct {
	Name   string
	First  string // what kind of object claimed the name first
	Second string // what kind of object claimed it again
}

// Design is the per-simulator design graph. All methods are
// construction-time only and single-goroutine, like the rest of the
// elaboration API.
type Design struct {
	ports      []*PortDecl
	channels   []*ChannelDecl
	syncs      []*SyncDecl
	partitions []Partition
	actors     []*ActorDecl
	names      map[string]string
	collisions []Collision
}

// Design returns the simulator's design graph, creating it on first use.
func (s *Simulator) Design() *Design {
	if s.design == nil {
		s.design = &Design{names: make(map[string]string)}
	}
	return s.design
}

// claim registers a design-object name, recording a collision when the
// name was already taken by another object.
func (d *Design) claim(name, what string) {
	if prev, ok := d.names[name]; ok {
		d.collisions = append(d.collisions, Collision{Name: name, First: prev, Second: what})
		return
	}
	d.names[name] = what
}

// DeclarePort records channel-endpoint ownership: the component at path
// owns a port named port in clk's domain. connections.In/Out call it via
// their Owned methods.
func (d *Design) DeclarePort(path, port string, clk *Clock, dir PortDir) *PortDecl {
	p := &PortDecl{Path: path, Port: port, Clock: clk, Dir: dir}
	d.claim(p.String(), dir.String()+" port")
	d.ports = append(d.ports, p)
	return p
}

// AddChannel records one bound channel. connections.Bind calls it.
func (d *Design) AddChannel(c ChannelDecl) *ChannelDecl {
	cc := c
	d.claim(cc.Name, "channel")
	d.channels = append(d.channels, &cc)
	return &cc
}

// AddSync records one clock-domain synchronizer. The GALS FIFO
// constructors call it.
func (d *Design) AddSync(s SyncDecl) *SyncDecl {
	ss := s
	d.claim(ss.Name, "synchronizer")
	d.syncs = append(d.syncs, &ss)
	return &ss
}

// MarkPartition labels the component subtree at path as one clock
// region.
func (d *Design) MarkPartition(path string, clk *Clock) {
	d.partitions = append(d.partitions, Partition{Path: path, Clock: clk})
}

// DeclareActor registers the component at path as a rate-analysis actor
// of the given class on clk. service is the maximum firing rate in
// firings per cycle (the zero Rat leaves it unconstrained). Declaring
// the same path twice records a name collision, like any other design
// object.
func (d *Design) DeclareActor(path string, class ActorClass, clk *Clock, service Rat) *ActorDecl {
	a := &ActorDecl{Path: path, Class: class, Clock: clk, Service: service}
	d.claim(path, class.String()+" actor")
	d.actors = append(d.actors, a)
	return a
}

// Actors returns the declared rate-analysis actors in declaration order.
func (d *Design) Actors() []*ActorDecl { return d.actors }

// Ports returns the declared endpoints in declaration order.
func (d *Design) Ports() []*PortDecl { return d.ports }

// Channels returns the bound channels in bind order.
func (d *Design) Channels() []*ChannelDecl { return d.channels }

// Syncs returns the registered synchronizers in registration order.
func (d *Design) Syncs() []*SyncDecl { return d.syncs }

// Partitions returns the labelled clock regions in marking order.
func (d *Design) Partitions() []Partition { return d.partitions }

// Collisions returns every duplicate-name event seen so far.
func (d *Design) Collisions() []Collision { return d.collisions }
