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
	// Context, when set, is tested once per unrolled depth; once it has
	// ended the search stops as if its budget were exhausted, so the
	// verdicts not yet violated are inconclusive.
	Context context.Context
	// Depth is the unroll bound in cycles (default DefaultDepth).
	Depth int
	// MaxStates caps the visited set (default 32768).
	MaxStates int
	// MaxSteps caps successor computations (default 262144), the actual
	// work bound on models whose choice fan-out dwarfs the state count.
	MaxSteps int
	// MaxChoice is the largest enabled-actor count for which every
	// firing subset is enumerated (default 12, i.e. 4096 successors).
	// Above it the search falls back to a partial stall adversary —
	// still able to find violations, never able to prove their absence.
	MaxChoice int
	// Progress, when set, is called once per completed unroll depth.
	Progress func(depth, states int)
}

// DefaultDepth is the unroll bound a zero Options.Depth selects; socd
// normalizes verify jobs to it, so socsim's and socd's verdicts agree.
const DefaultDepth = 64

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
	if o.MaxChoice <= 0 {
		o.MaxChoice = 12
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
	opt = opt.withDefaults()
	m := Build(s.Design())
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

	sr := &search{m: m, opt: opt}
	sr.directed()
	if sr.foundDL == nil || sr.foundEQ == nil {
		sr.run()
	}
	sr.verdicts(r)
	r.diagnose(s)
	return r
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

type entry struct {
	st     state
	parent int32
	fired  []bool // firing choice that produced this state (nil for root)
	depth  int32
}

type search struct {
	m   *Model
	opt Options

	entries []entry
	seen    map[string]int32

	truncated bool // partial firing-subset enumeration happened
	budget    bool // MaxStates or MaxSteps exhausted
	clipped   bool // a state at the depth bound was left unexpanded
	steps     int
	maxDepth  int
	dirStates int // directed-trajectory states visited

	foundDL *Counterexample
	foundEQ *Counterexample
}

func (s *search) key(st state) string {
	return string(bitvec.FromWords(st, s.m.StateBits).Bytes())
}

// directed runs the deterministic maximal-firing trajectory up to the
// depth bound, checking both properties along the way. On models too
// large to exhaust it is the cheap lane that still reaches deep
// fill-type witnesses (every producer pushing as fast as back-pressure
// allows); on small models it merely duplicates a BFS prefix.
func (s *search) directed() {
	m := s.m
	type frame struct {
		st    state
		fired []bool
	}
	traj := []frame{{st: m.newState()}}
	mkcx := func(hitDepth int) *Counterexample {
		cx := &Counterexample{
			Depth: hitDepth,
			State: bitvec.FromWords(traj[hitDepth].st, m.StateBits).String(),
		}
		for i := 0; i <= hitDepth; i++ {
			st := Step{Fired: []string{}, Occ: make([]int, len(m.Edges))}
			if traj[i].fired != nil {
				for u, f := range traj[i].fired {
					if f {
						st.Fired = append(st.Fired, m.Nodes[u].Name)
					}
				}
			}
			for ei := range m.Edges {
				st.Occ[ei] = m.used(traj[i].st, ei)
			}
			cx.Steps = append(cx.Steps, st)
		}
		return cx
	}
	for d := 0; ; d++ {
		s.dirStates = d + 1
		cur := traj[d].st
		dl, eq := m.violations(cur, s.foundDL == nil, s.foundEQ == nil)
		if dl != nil {
			s.foundDL = mkcx(d)
			s.foundDL.Property = "deadlock"
			s.foundDL.Rule = "MC-1"
			for _, u := range dl.cycle {
				s.foundDL.Cycle = append(s.foundDL.Cycle, m.Nodes[u].Name)
			}
			s.foundDL.Channels = dl.chans
		}
		if eq != nil {
			s.foundEQ = mkcx(d)
			s.foundEQ.Property = "equivalence"
			s.foundEQ.Rule = "MC-2"
			s.foundEQ.Node = m.Nodes[eq.node].Name
			s.foundEQ.Channel = m.Edges[eq.edge].Name
		}
		if d >= s.opt.Depth || (s.foundDL != nil && s.foundEQ != nil) || s.ended() {
			return
		}
		fire := make([]bool, len(m.Nodes))
		for u := range m.Nodes {
			if m.enabled(cur, u) {
				fire[u] = true
			}
		}
		ns := m.step(cur, fire)
		if s.key(ns) == s.key(cur) {
			return // quiescent: nothing enabled, pipelines drained
		}
		traj = append(traj, frame{st: ns, fired: fire})
	}
}

// run is the exhaustive lane: breadth-first search over every firing
// subset with explicit-state hashing. BFS order makes the first
// counterexample per property a shallowest one.
func (s *search) run() {
	s.seen = make(map[string]int32, 1024)
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
			if s.opt.Progress != nil {
				s.opt.Progress(d, len(s.entries))
			}
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
	s.entries = append(s.entries, entry{st: st, parent: parent, fired: fired, depth: depth})
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
		if len(s.entries) >= s.opt.MaxStates || s.steps >= s.opt.MaxSteps {
			s.budget = true
			return false
		}
		s.steps++
		s.add(m.step(e.st, fire), qi, fire, e.depth+1)
		return true
	}
	if len(en) <= s.opt.MaxChoice {
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
// the first (hence shallowest, by BFS order) counterexample of each.
func (s *search) checkState(qi int32, e *entry) {
	m := s.m
	dl, eq := m.violations(e.st, s.foundDL == nil, s.foundEQ == nil)
	if dl != nil {
		cx := s.counterexample(qi, e)
		cx.Property = "deadlock"
		cx.Rule = "MC-1"
		for _, u := range dl.cycle {
			cx.Cycle = append(cx.Cycle, m.Nodes[u].Name)
		}
		cx.Channels = dl.chans
		s.foundDL = cx
	}
	if eq != nil {
		cx := s.counterexample(qi, e)
		cx.Property = "equivalence"
		cx.Rule = "MC-2"
		cx.Node = m.Nodes[eq.node].Name
		cx.Channel = m.Edges[eq.edge].Name
		s.foundEQ = cx
	}
}

// counterexample reconstructs the firing schedule from the root to the
// given entry.
func (s *search) counterexample(qi int32, e *entry) *Counterexample {
	m := s.m
	var chain []int32
	for i := qi; i >= 0; i = s.entries[i].parent {
		chain = append(chain, i)
	}
	cx := &Counterexample{
		Depth: int(e.depth),
		State: bitvec.FromWords(e.st, m.StateBits).String(),
	}
	for i := len(chain) - 1; i >= 0; i-- {
		en := &s.entries[chain[i]]
		st := Step{Fired: []string{}, Occ: make([]int, len(m.Edges))}
		if en.fired != nil {
			for u, f := range en.fired {
				if f {
					st.Fired = append(st.Fired, m.Nodes[u].Name)
				}
			}
		}
		for ei := range m.Edges {
			st.Occ[ei] = m.used(en.st, ei)
		}
		cx.Steps = append(cx.Steps, st)
	}
	return cx
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

// verdicts folds the search outcome into per-property verdicts.
func (s *search) verdicts(r *Result) {
	r.States = len(s.entries) + s.dirStates
	r.Steps = s.steps
	fixpoint := len(s.entries) > 0 && !s.budget && !s.truncated && !s.clipped
	boundOK := len(s.entries) > 0 && !s.budget && !s.truncated
	settle := func(found *Counterexample) PropertyResult {
		switch {
		case found != nil:
			return PropertyResult{Verdict: VerdictViolated, Depth: found.Depth}
		case fixpoint:
			return PropertyResult{Verdict: VerdictProved, Depth: s.maxDepth}
		case boundOK:
			return PropertyResult{Verdict: VerdictBounded, Depth: s.maxDepth}
		default:
			return PropertyResult{Verdict: VerdictInconclusive, Depth: s.maxDepth}
		}
	}
	r.Deadlock = settle(s.foundDL)
	r.Equivalence = settle(s.foundEQ)
	if s.foundDL != nil {
		r.Counterexamples = append(r.Counterexamples, s.foundDL)
	}
	if s.foundEQ != nil {
		r.Counterexamples = append(r.Counterexamples, s.foundEQ)
	}
	if s.truncated {
		r.Notes = append(r.Notes, fmt.Sprintf("choice fan-out exceeded MaxChoice=%d: partial stall adversary used; absence of violations is not proved", s.opt.MaxChoice))
	}
	if s.budget {
		r.Notes = append(r.Notes, fmt.Sprintf("search budget exhausted (%d state(s), %d step(s)); coverage is partial", len(s.entries), s.steps))
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
