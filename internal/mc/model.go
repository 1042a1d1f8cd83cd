package mc

import (
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// Edge is one token-carrying channel of the abstract model: a bound LI
// channel or a registered CDC synchronizer. Occupancy state is split
// into a visible counter (tokens the consumer can pop) and Lat in-flight
// stage counters (tokens issued but still retiming through the
// channel's latency or the synchronizer's flop chain).
type Edge struct {
	Name     string
	Kind     string // channel kind, or "sync(<style>)" for a CDC FIFO
	Cap      int    // declared capacity, clamped >= 1 like the runtime
	Lat      int    // retiming stages (sync FIFOs model 2 CDC stages)
	Prod     int    // producing node index
	Cons     int    // consuming node index
	ProdRate int    // tokens pushed per producer firing (>= 1)
	ConsRate int    // tokens popped per consumer firing (>= 1)
	Sync     bool
	PeriodPS uint64 // producing clock period, for counterexample replay

	// Packed-state field layout: a visible-occupancy counter and Lat
	// stage counters. Fields never straddle a word boundary.
	visOff, visW     int
	stageOff, stageW int
}

// Storage is the total token capacity of the edge: declared slots plus
// one in-flight token burst per retiming stage.
func (e *Edge) Storage() int { return e.Cap + e.Lat*e.ProdRate }

// Node is an actor of the abstract model: a component path owning
// declared ports (AND-firing over all of them, the SDF abstraction), or
// an implicit free-running environment actor standing in for an
// endpoint the model cannot represent (anonymous port, switch fabric,
// or a synchronizer's surrounding clock domain).
type Node struct {
	Name string
	Env  bool  // implicit environment actor
	In   []int // edges consumed, model order
	Out  []int // edges produced, model order
}

// Model is the abstract token-flow system extracted from a sim.Design.
type Model struct {
	Nodes []Node
	Edges []Edge

	StateBits int // packed state width
	words     int

	DeclaredPorts int   // channel endpoints backed by declared ports
	EnvEndpoints  int   // endpoints abstracted to environment actors
	ApproxRates   int   // fractional declared rates approximated to 1
	Doomed        []int // edges whose producer burst exceeds Storage
}

// intRate collapses a declared endpoint rate to a whole token count per
// firing: undeclared means one token, and the rare fractional
// declaration (tokens averaged over several firings) is approximated to
// one token, counted in Model.ApproxRates.
func intRate(p *sim.PortDecl, approx *int) int {
	if p == nil || p.Rate.IsZero() {
		return 1
	}
	if p.Rate.Den != 1 {
		*approx++
		return 1
	}
	if p.Rate.Num < 1 {
		return 1
	}
	return int(p.Rate.Num)
}

// Build extracts the abstract model from a design side table. The
// extraction is deterministic: edges sort by name, nodes by name, and
// every adjacency list follows edge order.
func Build(d *sim.Design) *Model {
	m := &Model{}

	// Endpoints owned by switch actors (NoC routers, NIs, the SoC
	// nodes) route data-dependently; AND-firing would invent deadlocks
	// through the fabric, so those endpoints become environment actors.
	switchPaths := map[string]bool{}
	for _, a := range d.Actors() {
		if a.Class == sim.ActorSwitch {
			switchPaths[a.Path] = true
		}
	}

	type protoEdge struct {
		Edge
		prodName, consName string
		prodEnv, consEnv   bool
	}
	var protos []protoEdge

	endpoint := func(p *sim.PortDecl, envName string) (name string, env bool) {
		if p == nil || switchPaths[p.Path] {
			if p != nil {
				m.EnvEndpoints++ // switch fabric abstracted away
			} else {
				m.EnvEndpoints++ // anonymous testbench endpoint
			}
			return envName, true
		}
		m.DeclaredPorts++
		return p.Path, false
	}

	chans := append([]*sim.ChannelDecl(nil), d.Channels()...)
	sort.Slice(chans, func(i, j int) bool { return chans[i].Name < chans[j].Name })
	for _, c := range chans {
		var pe protoEdge
		pe.Name = c.Name
		pe.Kind = c.Kind
		pe.Cap = c.Capacity
		if pe.Cap < 1 {
			pe.Cap = 1
		}
		pe.Lat = c.Latency
		pe.ProdRate = intRate(c.Prod, &m.ApproxRates)
		pe.ConsRate = intRate(c.Cons, &m.ApproxRates)
		if c.Clock != nil {
			pe.PeriodPS = uint64(c.Clock.Period())
		}
		pe.prodName, pe.prodEnv = endpoint(c.Prod, "env:"+c.Name+".prod")
		pe.consName, pe.consEnv = endpoint(c.Cons, "env:"+c.Name+".cons")
		protos = append(protos, pe)
	}

	syncs := append([]*sim.SyncDecl(nil), d.Syncs()...)
	sort.Slice(syncs, func(i, j int) bool { return syncs[i].Name < syncs[j].Name })
	for _, sy := range syncs {
		var pe protoEdge
		pe.Name = sy.Name
		pe.Kind = "sync(" + sy.Style + ")"
		pe.Cap = sy.Depth
		if pe.Cap < 1 {
			pe.Cap = 1
		}
		pe.Lat = 2 // the synchronizer flop chain both styles share
		pe.ProdRate = 1
		pe.ConsRate = 1
		pe.Sync = true
		if sy.Prod != nil {
			pe.PeriodPS = uint64(sy.Prod.Period())
		}
		// The surrounding clock domains are the intended environment of
		// a CDC FIFO, not an abstraction loss: no EnvEndpoints count.
		pe.prodName, pe.prodEnv = "env:"+sy.Name+".tx", true
		pe.consName, pe.consEnv = "env:"+sy.Name+".rx", true
		protos = append(protos, pe)
	}

	// Duplicate channel names would alias state fields; the design layer
	// records such collisions for lint (CON-4), and the model keeps the
	// first edge per name so the state stays well-formed regardless.
	seen := map[string]bool{}
	kept := protos[:0]
	for _, pe := range protos {
		if seen[pe.Name] {
			continue
		}
		seen[pe.Name] = true
		kept = append(kept, pe)
	}
	protos = kept

	nodeIdx := map[string]int{}
	node := func(name string, env bool) int {
		if i, ok := nodeIdx[name]; ok {
			return i
		}
		nodeIdx[name] = len(m.Nodes)
		m.Nodes = append(m.Nodes, Node{Name: name, Env: env})
		return len(m.Nodes) - 1
	}
	// Two passes keep node numbering independent of edge interleaving:
	// first declared actors in sorted order, then env actors.
	var declared, envs []string
	for _, pe := range protos {
		if pe.prodEnv {
			envs = append(envs, pe.prodName)
		} else {
			declared = append(declared, pe.prodName)
		}
		if pe.consEnv {
			envs = append(envs, pe.consName)
		} else {
			declared = append(declared, pe.consName)
		}
	}
	sort.Strings(declared)
	sort.Strings(envs)
	for _, n := range declared {
		node(n, false)
	}
	for _, n := range envs {
		node(n, true)
	}

	for _, pe := range protos {
		e := pe.Edge
		e.Prod = node(pe.prodName, pe.prodEnv)
		e.Cons = node(pe.consName, pe.consEnv)
		ei := len(m.Edges)
		m.Edges = append(m.Edges, e)
		m.Nodes[e.Prod].Out = append(m.Nodes[e.Prod].Out, ei)
		m.Nodes[e.Cons].In = append(m.Nodes[e.Cons].In, ei)
	}

	m.finish()
	return m
}

// finish lays out the packed state and lists the doomed edges.
func (m *Model) finish() {
	m.layout()
	for ei := range m.Edges {
		e := &m.Edges[ei]
		if e.ProdRate > e.Storage() {
			m.Doomed = append(m.Doomed, ei)
		}
	}
}

// component is one weakly connected part of a model, extracted as a
// model of its own; edges[j] is the whole model's index of edge j.
type component struct {
	*Model
	edges []int
}

// components splits m into its weakly connected components by
// union-find over edge endpoints. Components are ordered by their first
// edge and keep m's relative node and edge order, so a connected model
// yields one component laid out exactly like m.
func (m *Model) components() []component {
	root := make([]int, len(m.Nodes))
	for u := range root {
		root[u] = u
	}
	find := func(u int) int {
		for root[u] != u {
			root[u] = root[root[u]]
			u = root[u]
		}
		return u
	}
	for _, e := range m.Edges {
		root[find(e.Prod)] = find(e.Cons)
	}
	partOf := make([]int, len(m.Nodes)) // by root
	for u := range partOf {
		partOf[u] = -1
	}
	var parts []component
	for ei, e := range m.Edges {
		r := find(e.Prod)
		if partOf[r] < 0 {
			partOf[r] = len(parts)
			parts = append(parts, component{Model: &Model{}})
		}
		p := &parts[partOf[r]]
		p.edges = append(p.edges, ei)
	}
	local := make([]int, len(m.Nodes)) // every node is an edge endpoint
	for u, n := range m.Nodes {
		p := &parts[partOf[find(u)]]
		local[u] = len(p.Nodes)
		p.Nodes = append(p.Nodes, Node{Name: n.Name, Env: n.Env})
	}
	for pi := range parts {
		p := &parts[pi]
		for j, ei := range p.edges {
			e := m.Edges[ei]
			e.Prod, e.Cons = local[e.Prod], local[e.Cons]
			p.Edges = append(p.Edges, e)
			p.Nodes[e.Prod].Out = append(p.Nodes[e.Prod].Out, j)
			p.Nodes[e.Cons].In = append(p.Nodes[e.Cons].In, j)
		}
		p.finish()
	}
	return parts
}

// layout assigns packed-state field offsets. Fields are kept inside a
// single 64-bit word each (padding to the next word when one would
// straddle), so get/set are single-word shifts.
func (m *Model) layout() {
	off := 0
	place := func(w int) int {
		if off/64 != (off+w-1)/64 {
			off = (off/64 + 1) * 64
		}
		o := off
		off += w
		return o
	}
	for ei := range m.Edges {
		e := &m.Edges[ei]
		e.visW = bits.Len(uint(e.Storage()))
		e.visOff = place(e.visW)
		if e.Lat > 0 {
			e.stageW = bits.Len(uint(e.ProdRate))
			for i := 0; i < e.Lat; i++ {
				o := place(e.stageW)
				if i == 0 {
					e.stageOff = o
				}
			}
		}
	}
	m.StateBits = off
	if m.StateBits == 0 {
		m.StateBits = 1 // a degenerate empty model still needs a key
	}
	m.words = (m.StateBits + 63) / 64
}

// state is one packed configuration of every edge's occupancy fields.
type state []uint64

func (m *Model) newState() state { return make(state, m.words) }

func get(s state, off, w int) int {
	return int((s[off/64] >> (uint(off) % 64)) & (1<<uint(w) - 1))
}

func set(s state, off, w, v int) {
	mask := uint64(1<<uint(w)-1) << (uint(off) % 64)
	s[off/64] = s[off/64]&^mask | uint64(v)<<(uint(off)%64)&mask
}

// vis is the consumer-visible occupancy of edge ei.
func (m *Model) vis(s state, ei int) int {
	e := &m.Edges[ei]
	return get(s, e.visOff, e.visW)
}

// used is the total token count held by edge ei: visible plus in-flight.
func (m *Model) used(s state, ei int) int {
	e := &m.Edges[ei]
	u := get(s, e.visOff, e.visW)
	for i := 0; i < e.Lat; i++ {
		u += m.stageGet(s, e, i)
	}
	return u
}

// stageAt returns the offset of stage i of edge ei. Stages are placed
// consecutively by layout (modulo word padding), so recompute the same
// placement walk.
func (m *Model) stageGet(s state, e *Edge, i int) int {
	return get(s, m.stageOffOf(e, i), e.stageW)
}

func (m *Model) stageOffOf(e *Edge, i int) int {
	// layout placed stage fields back to back starting at stageOff; a
	// field never straddles a word, so the only discontinuities are word
	// boundaries. Recreate the placement walk from stageOff.
	off := e.stageOff
	for k := 0; k < i; k++ {
		off += e.stageW
		if off/64 != (off+e.stageW-1)/64 {
			off = (off/64 + 1) * 64
		}
	}
	return off
}

// enabled reports whether node u can fire in the back-pressured
// (signal-accurate) semantics: every input edge has its pop visible and
// every output edge has room for its full burst.
func (m *Model) enabled(s state, u int) bool {
	n := &m.Nodes[u]
	for _, ei := range n.In {
		if m.vis(s, ei) < m.Edges[ei].ConsRate {
			return false
		}
	}
	for _, ei := range n.Out {
		e := &m.Edges[ei]
		if m.used(s, ei)+e.ProdRate > e.Storage() {
			return false
		}
	}
	return true
}

// specEnabled reports whether node u would fire under sim-accurate
// (unbounded-buffer) semantics: inputs suffice, back-pressure ignored.
// Total (not merely visible) occupancy counts, since in-flight tokens
// arrive without any other actor firing.
func (m *Model) specEnabled(s state, u int) bool {
	for _, ei := range m.Nodes[u].In {
		if m.used(s, ei) < m.Edges[ei].ConsRate {
			return false
		}
	}
	return true
}

// step computes the successor state when exactly the nodes with
// fire[u]==true fire (all must be enabled against s). Semantics are
// synchronous with pre-state gating: pops take cycle-start visible
// tokens, every latency stage advances one slot, and pushes enter the
// tail stage (or the visible counter on zero-latency edges).
func (m *Model) step(s state, fire []bool) state {
	ns := m.newState()
	copy(ns, s)
	for ei := range m.Edges {
		e := &m.Edges[ei]
		pop, push := 0, 0
		if fire[e.Cons] {
			pop = e.ConsRate
		}
		if fire[e.Prod] {
			push = e.ProdRate
		}
		if pop == 0 && push == 0 && e.Lat == 0 {
			continue
		}
		v := get(s, e.visOff, e.visW) - pop
		if e.Lat > 0 {
			v += m.stageGet(s, e, 0)
			for i := 0; i < e.Lat-1; i++ {
				set(ns, m.stageOffOf(e, i), e.stageW, m.stageGet(s, e, i+1))
			}
			set(ns, m.stageOffOf(e, e.Lat-1), e.stageW, push)
		} else {
			v += push
		}
		set(ns, e.visOff, e.visW, v)
	}
	return ns
}
