package mc

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/lint"
	"repro/internal/ratecheck"
	"repro/internal/sim"
)

// Options bounds the search. The zero value selects the defaults below;
// every bound is a budget, not a promise — exceeding one degrades the
// verdict to "inconclusive" rather than silently truncating coverage.
type Options struct {
	// Context, when set, is tested before each component and once per
	// unrolled depth; once it has ended the search stops as if its
	// budget were exhausted, so the verdicts not yet violated are
	// inconclusive.
	Context context.Context
	// Depth is the unroll bound in cycles (default DefaultDepth).
	Depth int
	// MaxStates caps the states visited across all components (default
	// 32768).
	MaxStates int
	// MaxSteps caps successor computations across all components
	// (default 262144), the actual work bound on models whose choice
	// fan-out dwarfs the state count.
	MaxSteps int
	// Progress, when set, is called each time the search first reaches
	// a deeper unroll depth in any component.
	Progress func(depth, states int)
}

// DefaultDepth is the unroll bound a zero Options.Depth selects; socd
// normalizes verify jobs to it, so socsim's and socd's verdicts agree.
const DefaultDepth = 64

// maxChoice is the largest enabled-actor count for which every firing
// subset is enumerated (4096 successors). Above it the search falls back
// to a partial stall adversary — still able to find violations, never
// able to prove their absence. The truncation note keeps calling it
// MaxChoice, as golden files pin that text.
const maxChoice = 12

func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = DefaultDepth
	}
	if o.MaxStates <= 0 {
		o.MaxStates = 1 << 15
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 1 << 18
	}
	return o
}

// Verdict values for one property.
const (
	VerdictProved       = "proved"       // reachable states exhausted below the bound
	VerdictBounded      = "bounded"      // no violation within the depth bound
	VerdictViolated     = "violated"     // counterexample attached
	VerdictInconclusive = "inconclusive" // budget or choice fan-out exceeded
)

// PropertyResult is the outcome for one property class.
type PropertyResult struct {
	Verdict string `json:"verdict"`
	// Depth is the counterexample depth when violated, else the deepest
	// unroll depth the exhaustive search completed.
	Depth int `json:"depth"`
}

// Step is one cycle of a counterexample trace: which actors fired, and
// the total per-edge occupancy after the cycle (model edge order).
type Step struct {
	Fired []string `json:"fired"`
	Occ   []int    `json:"occ"`
}

// Counterexample is a replayable violation witness: the firing schedule
// from the initial (all-empty) state to the violating state.
type Counterexample struct {
	Property string   `json:"property"` // "deadlock" or "equivalence"
	Rule     string   `json:"rule"`     // MC-1 or MC-2
	Depth    int      `json:"depth"`
	Node     string   `json:"node,omitempty"`     // MC-2: the diverging actor
	Channel  string   `json:"channel,omitempty"`  // MC-2: the starving channel
	Cycle    []string `json:"cycle,omitempty"`    // MC-1: the wait-for cycle
	Channels []string `json:"channels,omitempty"` // MC-1: channels on the cycle
	Steps    []Step   `json:"steps"`              // depth+1 entries, initial state first
	State    string   `json:"state"`              // packed violating state (bitvec)
}

// Result is one model-checking run's report. It embeds the same
// diagnostic list as lint and ratecheck, and renders with the same
// Summary, WriteTree and WriteJSON, so it is one more pass in the
// internal/analysis table.
type Result struct {
	lint.Diags

	Deadlock    PropertyResult
	Equivalence PropertyResult

	Counterexamples []*Counterexample
	Notes           []string

	// Model shape, for the report and for callers deciding how much the
	// proof covers (an open model's verdicts hold only for the declared
	// subgraph).
	Nodes         int
	Edges         int
	StateBits     int
	DeclaredPorts int
	EnvEndpoints  int
	ApproxRates   int

	States int // reachable states explored
	Steps  int // successor computations spent

	model *Model
}

// Summary renders the one-line outcome.
func (r *Result) Summary() string {
	return fmt.Sprintf("mc: %d error(s), %d warning(s), deadlock=%s, equivalence=%s, %d state(s), depth %d",
		r.Errors(), r.Warnings(), r.Deadlock.Verdict, r.Equivalence.Verdict, r.States, r.maxPropDepth())
}

func (r *Result) maxPropDepth() int {
	d := r.Deadlock.Depth
	if r.Equivalence.Depth > d {
		d = r.Equivalence.Depth
	}
	return d
}

// Err returns a non-nil error when any property is violated.
func (r *Result) Err() error {
	if r.Errors() > 0 {
		return fmt.Errorf("%s", r.Summary())
	}
	return nil
}

// Proved reports whether both properties were proved by exhausting the
// reachable state space — the precondition for treating the design as
// verified within the model.
func (r *Result) Proved() bool {
	return r.Deadlock.Verdict == VerdictProved && r.Equivalence.Verdict == VerdictProved
}

// Check model-checks the simulator's declared design. It never runs the
// simulation; the model is extracted from the sim.Design side table.
func Check(s *sim.Simulator, opt Options) *Result {
	r := check(Build(s.Design()), opt.withDefaults())
	r.diagnose(s)
	return r
}

// check searches each weakly connected component of m on its own and
// merges the outcomes. Both properties are local to a component and
// firing is never compulsory, so a product state is reachable within a
// depth exactly when each of its component states is: the product
// violates a property iff some component does, at the smallest such
// depth, and is proved iff every component is.
func check(m *Model, opt Options) *Result {
	r := &Result{
		Nodes: len(m.Nodes), Edges: len(m.Edges), StateBits: m.StateBits,
		DeclaredPorts: m.DeclaredPorts, EnvEndpoints: m.EnvEndpoints,
		ApproxRates: m.ApproxRates,
		model:       m,
	}
	if m.EnvEndpoints > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d endpoint(s) abstracted to free-running environment actors (anonymous ports or switch fabrics); the verdicts cover the declared LI subgraph only", m.EnvEndpoints))
	}
	if m.ApproxRates > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("%d fractional rate declaration(s) approximated to 1 token/firing", m.ApproxRates))
	}
	if len(m.Edges) == 0 {
		r.Deadlock = PropertyResult{Verdict: VerdictProved}
		r.Equivalence = PropertyResult{Verdict: VerdictProved}
		r.Notes = append(r.Notes, "no channels or synchronizers declared; nothing to check")
		return r
	}

	dl := merged{PropertyResult: PropertyResult{Verdict: VerdictProved}}
	eq := dl
	truncated, budget := false, false
	reported := 0 // next depth to report via Progress
	for _, c := range m.components() {
		sr := &search{m: c.Model, top: m, edges: c.edges, opt: opt,
			maxStates: opt.MaxStates - r.States, maxSteps: opt.MaxSteps - r.Steps}
		base := r.States
		sr.progress = func(depth, states int) {
			if opt.Progress != nil && depth >= reported {
				opt.Progress(depth, base+states)
				reported = depth + 1
			}
		}
		if !sr.ended() {
			sr.run()
		}
		r.States += len(sr.entries)
		r.Steps += sr.steps
		truncated = truncated || sr.truncated
		budget = budget || sr.budget
		dl.add(sr.settle(sr.foundDL), sr.foundDL)
		eq.add(sr.settle(sr.foundEQ), sr.foundEQ)
	}
	r.Deadlock, r.Equivalence = dl.PropertyResult, eq.PropertyResult
	for _, cx := range []*Counterexample{dl.cx, eq.cx} {
		if cx != nil {
			r.Counterexamples = append(r.Counterexamples, cx)
		}
	}
	if truncated {
		r.Notes = append(r.Notes, fmt.Sprintf("choice fan-out exceeded MaxChoice=%d: partial stall adversary used; absence of violations is not proved", maxChoice))
	}
	if budget {
		r.Notes = append(r.Notes, fmt.Sprintf("search budget exhausted (%d state(s), %d step(s)); coverage is partial", r.States, r.Steps))
	}
	return r
}

// merged folds the per-component outcomes of one property. The worst
// verdict wins (violated, then inconclusive, then bounded, then
// proved); a violation reports the shallowest counterexample, the
// earlier component's on a tie, and any other verdict the deepest
// depth a component completed.
type merged struct {
	PropertyResult
	cx *Counterexample
}

var severity = map[string]int{VerdictProved: 0, VerdictBounded: 1, VerdictInconclusive: 2, VerdictViolated: 3}

func (g *merged) add(p PropertyResult, cx *Counterexample) {
	switch {
	case cx != nil:
		if g.cx == nil || cx.Depth < g.cx.Depth {
			g.PropertyResult, g.cx = p, cx
		}
	case g.cx == nil:
		if severity[p.Verdict] > severity[g.Verdict] {
			g.Verdict = p.Verdict
		}
		if p.Depth > g.Depth {
			g.Depth = p.Depth
		}
	}
}

// dlHit and eqHit are raw property violations on one state, before a
// counterexample trace is attached.
type dlHit struct {
	cycle []int
	chans []string
}

type eqHit struct {
	node, edge int
}

// violations evaluates both properties on one state. The equivalence
// witness is an actor with sufficient input tokens (the sim-accurate
// run fires it) that is permanently unable to fire back-pressured:
// either its burst structurally exceeds an output's storage, or it sits
// on a deadlock cycle blocked by a full output.
func (m *Model) violations(s state, needDL, needEQ bool) (*dlHit, *eqHit) {
	var dl *dlHit
	var eq *eqHit
	if needDL || needEQ {
		if cyc, chans := m.deadlockCycle(s); cyc != nil {
			dl = &dlHit{cycle: cyc, chans: chans}
			if needEQ {
			cycleScan:
				for _, u := range cyc {
					if !m.specEnabled(s, u) {
						continue
					}
					for _, ei := range m.Nodes[u].Out {
						e := &m.Edges[ei]
						if m.used(s, ei)+e.ProdRate > e.Storage() {
							eq = &eqHit{node: u, edge: ei}
							break cycleScan
						}
					}
				}
			}
		}
	}
	if needEQ && eq == nil {
		for _, ei := range m.Doomed {
			if u := m.Edges[ei].Prod; m.specEnabled(s, u) {
				eq = &eqHit{node: u, edge: ei}
				break
			}
		}
	}
	if !needDL {
		dl = nil
	}
	return dl, eq
}

// frame is one cycle of a path from the initial state: the firing that
// produced st (nil for the initial state).
type frame struct {
	st    state
	fired []bool
}

type entry struct {
	frame
	parent int32
	depth  int32
}

// search explores one component. Counterexamples are rendered against
// the whole model, with every other component idle.
type search struct {
	m     *Model // the component
	top   *Model // the whole model
	edges []int  // top's index of each of m's edges
	opt   Options

	// This component's share of the budget: what earlier components
	// left of MaxStates and MaxSteps. Zero means exhausted.
	maxStates, maxSteps int
	progress            func(depth, states int)

	entries []entry
	seen    map[string]int32

	truncated bool // partial firing-subset enumeration happened
	budget    bool // MaxStates or MaxSteps exhausted
	clipped   bool // a state at the depth bound was left unexpanded
	steps     int
	maxDepth  int

	foundDL *Counterexample
	foundEQ *Counterexample
}

func (s *search) key(st state) string {
	return string(bitvec.FromWords(st, s.m.StateBits).Bytes())
}

// run is the breadth-first search over every firing subset with
// explicit-state hashing. BFS order makes the first counterexample per
// property a shallowest one.
func (s *search) run() {
	s.seen = make(map[string]int32, 1024)
	if s.full() {
		return
	}
	s.add(s.m.newState(), -1, nil, 0)

	reported := 0 // next depth to report via Progress
	for qi := 0; qi < len(s.entries); qi++ {
		e := &s.entries[qi]
		d := int(e.depth)
		if d > s.maxDepth {
			s.maxDepth = d
		}
		if d >= reported {
			if s.ended() {
				return
			}
			s.progress(d, len(s.entries))
			reported = d + 1
		}
		s.checkState(int32(qi), e)
		if s.foundDL != nil && s.foundEQ != nil {
			return
		}
		if d >= s.opt.Depth {
			s.clipped = true
			continue
		}
		if !s.expand(int32(qi), e) {
			return
		}
	}
}

// full reports whether this component's share of the budget is spent,
// marking the search budget-bound if so.
func (s *search) full() bool {
	if len(s.entries) >= s.maxStates || s.steps >= s.maxSteps {
		s.budget = true
		return true
	}
	return false
}

// ended reports whether the caller's context has ended, spending the
// search budget if so.
func (s *search) ended() bool {
	if s.opt.Context == nil || s.opt.Context.Err() == nil {
		return false
	}
	s.budget = true
	return true
}

func (s *search) add(st state, parent int32, fired []bool, depth int32) {
	k := s.key(st)
	if _, ok := s.seen[k]; ok {
		return
	}
	s.seen[k] = int32(len(s.entries))
	s.entries = append(s.entries, entry{frame: frame{st: st, fired: fired}, parent: parent, depth: depth})
}

// expand enqueues the successors of one state; false stops the search.
func (s *search) expand(qi int32, e *entry) bool {
	m := s.m
	var en []int
	for u := range m.Nodes {
		if m.enabled(e.st, u) {
			en = append(en, u)
		}
	}
	try := func(fire []bool) bool {
		if s.full() {
			return false
		}
		s.steps++
		s.add(m.step(e.st, fire), qi, fire, e.depth+1)
		return true
	}
	if len(en) <= maxChoice {
		for mask := 0; mask < 1<<len(en); mask++ {
			fire := make([]bool, len(m.Nodes))
			for i, u := range en {
				if mask&(1<<i) != 0 {
					fire[u] = true
				}
			}
			if !try(fire) {
				return false
			}
		}
		return true
	}
	// Partial stall adversary: the maximal firing, each single stall,
	// and the global stall. Finds bugs; cannot prove their absence.
	s.truncated = true
	all := make([]bool, len(m.Nodes))
	for _, u := range en {
		all[u] = true
	}
	if !try(all) {
		return false
	}
	for _, u := range en {
		one := make([]bool, len(m.Nodes))
		copy(one, all)
		one[u] = false
		if !try(one) {
			return false
		}
	}
	return try(make([]bool, len(m.Nodes)))
}

// checkState evaluates both properties on a reached state and records
// the first (hence shallowest, by BFS order) counterexample of each,
// traced back along the parent links.
func (s *search) checkState(qi int32, e *entry) {
	m := s.m
	dl, eq := m.violations(e.st, s.foundDL == nil, s.foundEQ == nil)
	if dl == nil && eq == nil {
		return
	}
	path := make([]frame, e.depth+1)
	for i := qi; i >= 0; i = s.entries[i].parent {
		path[s.entries[i].depth] = s.entries[i].frame
	}
	if dl != nil {
		cx := s.counterexample(path)
		cx.Property = "deadlock"
		cx.Rule = "MC-1"
		for _, u := range dl.cycle {
			cx.Cycle = append(cx.Cycle, m.Nodes[u].Name)
		}
		cx.Channels = dl.chans
		s.foundDL = cx
	}
	if eq != nil {
		cx := s.counterexample(path)
		cx.Property = "equivalence"
		cx.Rule = "MC-2"
		cx.Node = m.Nodes[eq.node].Name
		cx.Channel = m.Edges[eq.edge].Name
		s.foundEQ = cx
	}
}

// counterexample renders a path of component states against the whole
// model: occupancies in its edge order, every other edge empty.
func (s *search) counterexample(path []frame) *Counterexample {
	m := s.m
	last := path[len(path)-1].st
	cx := &Counterexample{
		Depth: len(path) - 1,
		State: bitvec.FromWords(s.lift(last), s.top.StateBits).String(),
	}
	for _, f := range path {
		st := Step{Fired: []string{}, Occ: make([]int, len(s.top.Edges))}
		for u, fired := range f.fired {
			if fired {
				st.Fired = append(st.Fired, m.Nodes[u].Name)
			}
		}
		for j, ei := range s.edges {
			st.Occ[ei] = m.used(f.st, j)
		}
		cx.Steps = append(cx.Steps, st)
	}
	return cx
}

// lift places a component state into the whole model's layout.
func (s *search) lift(st state) state {
	g := s.top.newState()
	for j, ei := range s.edges {
		e, ge := &s.m.Edges[j], &s.top.Edges[ei]
		set(g, ge.visOff, ge.visW, get(st, e.visOff, e.visW))
		for i := 0; i < e.Lat; i++ {
			set(g, s.top.stageOffOf(ge, i), ge.stageW, s.m.stageGet(st, e, i))
		}
	}
	return g
}

// deadlockCycle looks for a cycle of blocked actors whose unsatisfied
// necessary conditions point at each other: an empty-ish input waits on
// the edge's sole producer, an over-full output on its sole consumer.
// Conditions that in-flight tokens will relieve on their own generate
// no wait edge, so a reported cycle can never clear — a true deadlock
// within the model.
func (m *Model) deadlockCycle(s state) (cycle []int, chans []string) {
	n := len(m.Nodes)
	blocked := make([]bool, n)
	for u := 0; u < n; u++ {
		blocked[u] = !m.enabled(s, u)
	}
	adj := make([][]int, n) // wait-for targets
	via := make([][]int, n) // edge behind each wait
	for u := 0; u < n; u++ {
		if !blocked[u] {
			continue
		}
		for _, ei := range m.Nodes[u].In {
			e := &m.Edges[ei]
			if m.used(s, ei) < e.ConsRate && blocked[e.Prod] {
				adj[u] = append(adj[u], e.Prod)
				via[u] = append(via[u], ei)
			}
		}
		for _, ei := range m.Nodes[u].Out {
			e := &m.Edges[ei]
			if m.used(s, ei)+e.ProdRate > e.Storage() && blocked[e.Cons] {
				adj[u] = append(adj[u], e.Cons)
				via[u] = append(via[u], ei)
			}
		}
	}
	// Iterative DFS over the wait-for graph; a gray-node hit is a cycle.
	color := make([]int8, n) // 0 white, 1 gray, 2 black
	var stack []int
	var stackEdge []int // index into adj[stack[i]] taken from each frame
	for start := 0; start < n; start++ {
		if color[start] != 0 || !blocked[start] {
			continue
		}
		stack = append(stack[:0], start)
		stackEdge = append(stackEdge[:0], 0)
		color[start] = 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			i := stackEdge[len(stack)-1]
			if i >= len(adj[u]) {
				color[u] = 2
				stack = stack[:len(stack)-1]
				stackEdge = stackEdge[:len(stackEdge)-1]
				continue
			}
			stackEdge[len(stackEdge)-1]++
			v := adj[u][i]
			if color[v] == 1 {
				// Unwind the stack back to v: that slice is the cycle.
				at := len(stack) - 1
				for stack[at] != v {
					at--
				}
				cycle = append([]int(nil), stack[at:]...)
				chanSet := map[string]bool{}
				for j, cu := range cycle {
					next := cycle[(j+1)%len(cycle)]
					for k, t := range adj[cu] {
						if t == next {
							chanSet[m.Edges[via[cu][k]].Name] = true
						}
					}
				}
				for name := range chanSet { //detvet:ok sorted below
					chans = append(chans, name)
				}
				sort.Strings(chans)
				return cycle, chans
			}
			if color[v] == 0 {
				color[v] = 1
				stack = append(stack, v)
				stackEdge = append(stackEdge, 0)
			}
		}
	}
	return nil, nil
}

// settle turns this component's search outcome into one property's
// verdict.
func (s *search) settle(found *Counterexample) PropertyResult {
	searched := len(s.entries) > 0 && !s.budget && !s.truncated
	switch {
	case found != nil:
		return PropertyResult{Verdict: VerdictViolated, Depth: found.Depth}
	case searched && !s.clipped:
		return PropertyResult{Verdict: VerdictProved, Depth: s.maxDepth}
	case searched:
		return PropertyResult{Verdict: VerdictBounded, Depth: s.maxDepth}
	default:
		return PropertyResult{Verdict: VerdictInconclusive, Depth: s.maxDepth}
	}
}

// diagnose renders counterexamples as lint-style diagnostics,
// cross-referencing lint's static deadlock SCCs and ratecheck's RATE-3
// buffer minima as invariant candidates.
func (r *Result) diagnose(s *sim.Simulator) {
	if len(r.Counterexamples) == 0 {
		return
	}
	lr := lint.Check(s)
	rr := ratecheck.Check(s)
	for _, cx := range r.Counterexamples {
		switch cx.Rule {
		case "MC-1":
			msg := fmt.Sprintf("reachable deadlock at depth %d: circular wait %s", cx.Depth, strings.Join(cx.Cycle, " -> "))
			if static := staticDLK(lr, cx.Channels); static != "" {
				msg += " (statically flagged: " + static + ")"
			}
			r.Diags = append(r.Diags, lint.Diag{
				Rule:     "MC-1",
				Severity: lint.SevError,
				Path:     cx.Cycle[0],
				Message:  msg,
				Hint:     "every actor on the cycle waits on a condition only the next can relieve; add initial tokens, deepen a buffer on the cycle, or break the loop",
				Channels: cx.Channels,
			})
		case "MC-2":
			var e *Edge
			for i := range r.model.Edges {
				if r.model.Edges[i].Name == cx.Channel {
					e = &r.model.Edges[i]
				}
			}
			msg := fmt.Sprintf("equivalence violation at depth %d: %q has sufficient input tokens (the sim-accurate run fires it) but can never push %d token(s) through %q (storage %d)", cx.Depth, cx.Node, e.ProdRate, cx.Channel, e.Storage())
			hint := fmt.Sprintf("deepen %q to hold the %d-token burst", cx.Channel, e.ProdRate)
			if min := rr.ChannelMinDepth(cx.Channel); min > 0 {
				hint += fmt.Sprintf(" (ratecheck RATE-3 minimum depth: %d)", min)
			}
			r.Diags = append(r.Diags, lint.Diag{
				Rule:     "MC-2",
				Severity: lint.SevError,
				Path:     cx.Node,
				Message:  msg,
				Hint:     hint,
				Channels: []string{cx.Channel},
			})
		}
	}
	sort.SliceStable(r.Diags, func(i, j int) bool { return r.Diags[i].Rule < r.Diags[j].Rule })
}

// staticDLK names the lint deadlock rules whose SCC shares a channel
// with the model-checked cycle.
func staticDLK(lr *lint.Result, chans []string) string {
	inCycle := map[string]bool{}
	for _, c := range chans {
		inCycle[c] = true
	}
	var rules []string
	seenRule := map[string]bool{}
	for _, d := range lr.Diags {
		if (d.Rule != "DLK-1" && d.Rule != "DLK-2") || seenRule[d.Rule] {
			continue
		}
		for _, c := range d.Channels {
			if inCycle[c] {
				rules = append(rules, d.Rule)
				seenRule[d.Rule] = true
				break
			}
		}
	}
	sort.Strings(rules)
	return strings.Join(rules, ", ")
}
